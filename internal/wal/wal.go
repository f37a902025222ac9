// Package wal is the crash-consistent frame log every durable file of a
// node is written through — the stand-in for PostgreSQL's transaction log
// in the recovery protocol of §3.6. A node keeps at most two: its chain
// (internal/ledger: blocks and their outcomes) and, on the disk backend,
// its storage log (internal/storage: row mutations).
//
// A log is the header line below followed by frames:
//
//	[len u32][payload crc u32][header crc u32][payload]
//
// The header checksum covers the length and the payload checksum, so a
// damaged length is reported as damage, never read as a torn write.
// Reading tells a crash from damage by position: only the file's last
// frame can be torn — a partial header, a length that runs past
// end-of-file under a header that checks, or a final payload that fails
// its checksum — and that tail is cut away. Anything wrong before it is
// an error naming the file and the offset, and the file is left as found.
// Nothing is allocated beyond the file's size.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// magic starts every log. A file without it — one written before frame
// headers were checksummed — is refused by name.
const magic = "bcrdb-log-1\n"

const frameHeader = 12

// ErrCorrupt is damage before a log's tail.
var ErrCorrupt = errors.New("damaged frame")

// Log is an append-only frame log. Safe for use by one writer goroutine;
// Sync and ReadPayload may run beside it.
type Log struct {
	f *os.File
	// end is where the next frame goes, and where a failed write is cut
	// back to.
	end int64
}

// Open opens the log at path for appending, creating it when missing or
// empty. The caller has cut any torn tail away (ReadAllRaw, CutTail).
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err == nil && end == 0 {
		_, err = f.WriteAt([]byte(magic), 0)
		end = int64(len(magic))
	} else if err == nil {
		head := make([]byte, len(magic))
		if _, rerr := f.ReadAt(head, 0); rerr != nil || string(head) != magic {
			err = formatError(path)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, end: end}, nil
}

// AppendRaw writes one frame holding payload. A write that fails is cut
// away, so the next frame lands where this one would have.
func (l *Log) AppendRaw(payload []byte) error {
	_, err := l.Append(payload)
	return err
}

// Append is AppendRaw that also returns the offset at which the frame
// starts — the Off that Scan reports for it, and what ReadPayload takes.
func (l *Log) Append(payload []byte) (off int64, err error) {
	fr := frame(payload)
	if _, err := l.f.WriteAt(fr, l.end); err != nil {
		_ = l.f.Truncate(l.end)
		return 0, err
	}
	off = l.end
	l.end += int64(len(fr))
	return off, nil
}

// ReadPayload fills p with the first len(p) bytes of the payload of the
// frame that starts at off, an offset Append returned or Scan reported.
// The bytes of a written frame never change, so it may run beside Append
// and Sync; after Close it fails. It does not check the payload's
// checksum: that was done when the frame was scanned or written.
func (l *Log) ReadPayload(p []byte, off int64) error {
	n, err := l.f.ReadAt(p, off+frameHeader)
	if n == len(p) {
		return nil
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// frame prefixes a payload with its checksummed header.
func frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(out[8:12], crc32.ChecksumIEEE(out[0:8]))
	copy(out[frameHeader:], payload)
	return out
}

// Sync flushes to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the log.
func (l *Log) Close() error { return l.f.Close() }

// Frame is one intact frame of a log.
type Frame struct {
	Off     int64 // where the frame starts in the file
	Payload []byte
}

// Scan reads the log at path without modifying it. It returns the intact
// frames and the offset just past the last of them; whatever lies beyond
// is the torn tail of a crash, which CutTail removes. A missing file is an
// empty log. Damage before the tail is an error (ErrCorrupt, naming path
// and offset), returned with the frames before it.
func Scan(path string) ([]Frame, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if len(data) < len(magic) && strings.HasPrefix(magic, string(data)) {
		return nil, 0, nil // the header itself was torn
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, 0, formatError(path)
	}
	var frames []Frame
	off := len(magic)
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader {
			break
		}
		if crc32.ChecksumIEEE(rest[0:8]) != binary.BigEndian.Uint32(rest[8:12]) {
			return frames, int64(off), damaged(path, off, len(data), "header checksum mismatch")
		}
		n := int64(binary.BigEndian.Uint32(rest[0:4]))
		if n > int64(len(rest)-frameHeader) {
			break
		}
		p := rest[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(p) != binary.BigEndian.Uint32(rest[4:8]) {
			if frameHeader+n == int64(len(rest)) {
				break
			}
			return frames, int64(off), damaged(path, off, len(data), "payload checksum mismatch")
		}
		frames = append(frames, Frame{Off: int64(off), Payload: p})
		off += frameHeader + int(n)
	}
	return frames, int64(off), nil
}

func damaged(path string, off, size int, why string) error {
	return fmt.Errorf("wal: %s: %w at offset %d of %d (%s), file left untouched", path, ErrCorrupt, off, size, why)
}

func formatError(path string) error {
	return fmt.Errorf("wal: %s does not start with %q: it predates checksummed frame headers", path, magic)
}

// CutTail cuts the log at path back to end, the offset Scan returned, when
// a torn tail lies beyond it.
func CutTail(path string, end int64) error {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil || st.Size() <= end {
		return err
	}
	return os.Truncate(path, end)
}

// ReadAllRaw returns the payload of every intact frame of the log at
// path, first cutting away a torn tail. Damage before the tail is an
// error, and the file is left untouched. A missing file yields no frames.
func ReadAllRaw(path string) ([][]byte, error) {
	frames, end, err := Scan(path)
	if err != nil {
		return nil, err
	}
	if err := CutTail(path, end); err != nil {
		return nil, err
	}
	out := make([][]byte, len(frames))
	for i, f := range frames {
		out[i] = f.Payload
	}
	return out, nil
}

// Rewrite atomically replaces the log at path with exactly the given
// frame payloads: it writes a temporary sibling file, syncs it, and
// renames it over path. Used for dropping frames beyond the recovery
// horizon.
func Rewrite(path string, payloads [][]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte(magic))
	for _, p := range payloads {
		if err == nil {
			_, err = f.Write(frame(p))
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Fsync the parent directory so the rename itself survives a power
	// failure; without it the directory entry may still point at the old
	// inode and frames appended after the swap would be lost.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}
