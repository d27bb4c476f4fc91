// Package durable is the repository's one on-disk format: an append-only
// log of CRC-framed records behind a magic header, and a checked file
// (magic, body, CRC trailer) replaced atomically by rename. Every fsync,
// rename and checksum a store issues happens here, so the crash model is
// stated once: an append is durable once it returns, a torn tail is cut
// at replay, and a replaced file is seen whole or not at all.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// ErrCorrupt reports a file whose magic or checksum does not match.
var ErrCorrupt = errors.New("durable: corrupt file")

// SyncDirHook, when non-nil, observes every directory fsync. It is a test
// hook for the creation and rename durability windows.
var SyncDirHook func(dir string)

// frameHeader is the [len u32][crc32 u32] prefix of every log record.
const frameHeader = 8

// Log is an append-only file of records, each framed as
// [len u32][crc32 u32][payload] after the file's magic. A Log is not safe
// for concurrent use: its owner serializes every call except Syncs.
type Log struct {
	path  string
	magic []byte
	max   int
	f     *os.File
	syncs atomic.Uint64
}

// OpenLog opens the log at path, creating it if needed. A fresh file gets
// magic, a file fsync and a directory fsync, so it survives a power cut
// before its first append; an existing file must start with magic.
// maxRecord bounds one payload, on append and on replay.
func OpenLog(path string, magic []byte, maxRecord int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, magic: magic, max: maxRecord, f: f}
	if err := l.initMagic(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// initMagic writes the magic into a fresh file, or checks an existing one's.
func (l *Log) initMagic() error {
	info, err := l.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		if _, err := l.f.Write(l.magic); err != nil {
			return err
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		return syncDir(filepath.Dir(l.path))
	}
	got := make([]byte, len(l.magic))
	n, _ := io.ReadFull(l.f, got)
	if !bytes.Equal(got[:n], l.magic) {
		return fmt.Errorf("%w: %s: magic %q, want %q", ErrCorrupt, filepath.Base(l.path), got[:n], l.magic)
	}
	return nil
}

// appendFrame appends payload to dst as one framed record.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Append writes one record and fsyncs it: when it returns nil, the record
// is on stable storage.
func (l *Log) Append(payload []byte) error {
	if len(payload) > l.max {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d-byte bound", len(payload), l.max)
	}
	if _, err := l.f.Write(appendFrame(nil, payload)); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs.Add(1)
	return nil
}

// Replay returns the payload of every record before the first torn,
// corrupt or over-bound one, and cuts the file there (with an fsync) so
// later appends follow the last good record. Payloads are slices of the
// file: a length field never sizes an allocation.
func (l *Log) Replay() ([][]byte, error) {
	raw, err := os.ReadFile(l.path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(raw, l.magic) {
		return nil, fmt.Errorf("%w: %s: magic lost", ErrCorrupt, filepath.Base(l.path))
	}
	var recs [][]byte
	off := len(l.magic)
	for len(raw)-off >= frameHeader {
		n := int64(binary.BigEndian.Uint32(raw[off:]))
		if n > int64(l.max) || n > int64(len(raw)-off-frameHeader) {
			break
		}
		end := off + frameHeader + int(n)
		p := raw[off+frameHeader : end : end]
		if crc32.ChecksumIEEE(p) != binary.BigEndian.Uint32(raw[off+4:]) {
			break
		}
		recs = append(recs, p)
		off = end
	}
	if off < len(raw) {
		if err := l.truncate(int64(off)); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// Reset drops every record, keeping the magic.
func (l *Log) Reset() error { return l.truncate(int64(len(l.magic))) }

func (l *Log) truncate(size int64) error {
	if err := l.f.Truncate(size); err != nil {
		return err
	}
	return l.f.Sync()
}

// Rewrite atomically replaces the log with one holding exactly records.
func (l *Log) Rewrite(records [][]byte) error {
	var buf []byte
	for _, r := range records {
		buf = appendFrame(buf, r)
	}
	if err := replaceFile(l.path, l.magic, buf); err != nil {
		return err
	}
	// The old descriptor names the replaced file: appends must go to the
	// new one, or fail.
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0)
	l.f.Close()
	if err != nil {
		return err
	}
	l.f = f
	return nil
}

// Syncs returns how many append fsyncs the log has issued.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// Close closes the file. Every appended record is already durable.
func (l *Log) Close() error { return l.f.Close() }

// CrashForTest simulates a power cut mid-append: a prefix of torn bytes of
// payload's record (clamped to leave it genuinely torn) reaches the file
// without an fsync, and the file is closed.
func (l *Log) CrashForTest(payload []byte, torn int) error {
	rec := appendFrame(nil, payload)
	torn = max(0, min(torn, len(rec)-1))
	_, err := l.f.Write(rec[:torn])
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile atomically replaces the file at path with magic, body and a
// CRC32 trailer over body.
func WriteFile(path string, magic, body []byte) error {
	return replaceFile(path, magic, body, binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(body)))
}

// ReadFile returns the body of a file written by WriteFile, checking its
// magic and trailer. A missing file reports an os.ErrNotExist error.
func ReadFile(path string, magic []byte) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(raw) < len(magic)+4 || !bytes.Equal(raw[:len(magic)], magic) {
		return nil, fmt.Errorf("%w: %s: magic %q, want %q", ErrCorrupt, name, raw[:min(len(raw), len(magic))], magic)
	}
	body := raw[len(magic) : len(raw)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(raw[len(raw)-4:]) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, name)
	}
	return body, nil
}

// replaceFile writes parts to a temporary file, fsyncs it, renames it over
// path and fsyncs the directory.
func replaceFile(path string, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err == nil {
			_, err = f.Write(p)
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
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so creations and renames within it are
// durable.
func syncDir(dir string) error {
	if SyncDirHook != nil {
		SyncDirHook(dir)
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
