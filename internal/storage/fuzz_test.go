package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"bcrdb/internal/wal"
)

// FuzzOpenStoreLog opens arbitrary frames as a store log — the frames a
// restart replays. The input is a list of uvarint-prefixed payloads,
// written as frames that pass their checksums, so every one of them
// reaches the replay decoder. Opening must never panic. Either it
// refuses and leaves the file as found, or it returns a store whose log
// reopens to the same height and state hash without further change.
func FuzzOpenStoreLog(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.store.wal")
	s, err := OpenDisk(path)
	if err != nil {
		f.Fatal(err)
	}
	driveHistory(f, s)
	s.Vacuum(2)
	if err := s.DropTable("t"); err != nil {
		f.Fatal(err)
	}
	s.Close()
	frames, _, err := wal.Scan(path)
	if err != nil {
		f.Fatal(err)
	}
	var all []byte
	for i, fr := range frames {
		one := binary.AppendUvarint(nil, uint64(len(fr.Payload)))
		one = append(one, fr.Payload...)
		if i < 4 {
			f.Add(one) // a single frame of each early kind
		}
		all = append(all, one...)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		for d := data; len(d) > 0; {
			n, k := binary.Uvarint(d)
			if k <= 0 || n > uint64(len(d)-k) {
				break
			}
			payloads = append(payloads, d[k:k+int(n)])
			d = d[k+int(n):]
		}
		path, before := writeLog(t, payloads...)
		s, err := Open(KindDisk, path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, before) {
				t.Fatalf("refused (%v), but the file changed from %d to %d bytes", err, len(before), len(after))
			}
			return
		}
		h := s.Height()
		hash := s.StateHash(h)
		s.Close()
		re, err := Open(KindDisk, path)
		if err != nil {
			t.Fatalf("the compacted log does not reopen: %v", err)
		}
		defer re.Close()
		if re.Height() != h || re.StateHash(h) != hash {
			t.Fatalf("reopened at height %d (want %d), state hash equal %v", re.Height(), h, re.StateHash(h) == hash)
		}
		if again, _ := os.ReadFile(path); !bytes.Equal(again, after) {
			t.Fatal("reopening changed the file")
		}
	})
}
