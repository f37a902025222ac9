// Package wal implements the node's append-ahead logging — the stand-in
// for PostgreSQL's transaction log in the recovery protocol of §3.6.
//
// The package has two layers:
//
//   - a generic frame log (Append / AppendRaw / ReadAllRaw / Rewrite):
//     length- and CRC-prefixed opaque payloads with torn-tail truncation,
//     reused by any subsystem that needs crash-consistent appends (the
//     disk storage backend logs row mutations through it);
//   - the block-outcome record (BlockRecord): one frame per processed
//     block, carrying every transaction's commit/abort status and the
//     block's write-set hash.
//
// A restarting node replays its block store to rebuild state (execution
// is deterministic), then cross-checks the replayed statuses against the
// WAL: a mismatch means the block store or the log was tampered with. A
// torn final frame (crash mid-append, §3.6 case b) is detected by CRC and
// discarded; the block is simply re-processed.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"bcrdb/internal/codec"
)

// TxOutcome is one transaction's fate inside a block.
type TxOutcome struct {
	ID        string
	Committed bool
	Reason    string // abort reason, empty when committed
}

// BlockRecord is one WAL frame: the outcome of processing one block.
type BlockRecord struct {
	Block     uint64
	Outcomes  []TxOutcome
	WriteHash [32]byte
}

func (r *BlockRecord) encode() []byte {
	e := codec.NewBuf(256)
	e.Uvarint(r.Block)
	e.Uvarint(uint64(len(r.Outcomes)))
	for _, o := range r.Outcomes {
		e.String(o.ID)
		e.Bool(o.Committed)
		e.String(o.Reason)
	}
	e.Bytes2(r.WriteHash[:])
	return e.Bytes()
}

func decodeRecord(data []byte) (*BlockRecord, error) {
	d := codec.NewDec(data)
	r := &BlockRecord{}
	r.Block = d.Uvarint()
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		r.Outcomes = append(r.Outcomes, TxOutcome{
			ID:        d.String(),
			Committed: d.Bool(),
			Reason:    d.String(),
		})
	}
	h := d.Bytes2()
	if len(h) == 32 {
		copy(r.WriteHash[:], h)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// Log is an append-only WAL. Safe for use by one writer goroutine.
type Log struct {
	f    *os.File
	path string
}

// ErrCorrupt reports an unreadable (non-tail) frame.
var ErrCorrupt = errors.New("wal: corrupt record")

// Open opens (creating if needed) a WAL at path and positions for append.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, path: path}, nil
}

// Append writes one block-outcome frame.
func (l *Log) Append(r *BlockRecord) error {
	return l.AppendRaw(r.encode())
}

// AppendRaw writes one opaque frame: [len u32][crc u32][payload].
func (l *Log) AppendRaw(payload []byte) error {
	_, err := l.f.Write(frame(payload))
	return err
}

// frame prefixes a payload with its length and CRC.
func frame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// Sync flushes to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the log.
func (l *Log) Close() error { return l.f.Close() }

// ReadAll loads every intact block-outcome frame from path; a torn or
// corrupt tail is truncated away (crash recovery), while corruption in
// the middle is an error.
func ReadAll(path string) ([]*BlockRecord, error) {
	payloads, err := ReadAllRaw(path)
	if err != nil {
		return nil, err
	}
	var out []*BlockRecord
	var goodOff int64
	for i, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil {
			if i == len(payloads)-1 {
				// Undecodable tail frame: treat like a torn write.
				return out, truncate(path, goodOff)
			}
			return nil, err
		}
		out = append(out, rec)
		goodOff += int64(8 + len(p))
	}
	return out, nil
}

// ReadAllRaw loads every intact frame payload from path; a torn or
// CRC-corrupt tail is truncated away (crash recovery), while corruption
// in the middle is an error. A missing file yields no frames.
func ReadAllRaw(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()

	var out [][]byte
	var goodOff int64
	for {
		var hdr [8]byte
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			return out, nil
		}
		if err == io.ErrUnexpectedEOF {
			return out, truncate(path, goodOff)
		}
		if err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		wantCRC := binary.BigEndian.Uint32(hdr[4:8])
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return out, truncate(path, goodOff)
			}
			return nil, err
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			// Torn tail if nothing follows; otherwise corruption.
			if pos, _ := f.Seek(0, io.SeekCurrent); isEOFAt(f, pos) {
				return out, truncate(path, goodOff)
			}
			return nil, fmt.Errorf("%w: at offset %d", ErrCorrupt, goodOff)
		}
		out = append(out, payload)
		goodOff += int64(8 + len(payload))
	}
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
	for _, p := range payloads {
		if _, err := f.Write(frame(p)); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
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

func isEOFAt(f *os.File, pos int64) bool {
	fi, err := f.Stat()
	return err == nil && pos >= fi.Size()
}

func truncate(path string, off int64) error {
	return os.Truncate(path, off)
}
