// Wire protocol between coordinator and worker: one request/response
// exchange per connection, so there is no session state to resynchronize
// after a failure — a broken connection simply fails its one shard.
//
//	request:  "MRSHJOB1" | u32 LE payload length | JSON-encoded Job
//	response: "MRSHTRE1" | u8 status
//	  status 0 (ok):    size-prefixed treeio snapshot (treeio.SaveStream)
//	  status 1 (error): u32 LE length | UTF-8 error message
//	  status 2 (format error): as status 1, the message being the
//	    section and the text of the *treeio.FormatError the worker's
//	    load returned, split by a NUL byte
//
// The snapshot bytes after the status byte are exactly the PR 6 file
// format; every checksum and structural guarantee of treeio applies to
// the stream. Multi-byte integers are little-endian, matching treeio.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"mrcc/internal/ctree"
	"mrcc/internal/fault"
	"mrcc/internal/treeio"
)

const (
	jobMagic  = "MRSHJOB1"
	treeMagic = "MRSHTRE1"

	statusOK        = 0
	statusErr       = 1
	statusFormatErr = 2

	// maxJobBytes bounds the JSON job payload a worker will read: a
	// job is a path plus two float arrays, never megabytes. A hostile
	// length prefix cannot force a large allocation.
	maxJobBytes = 1 << 20
	// maxErrBytes bounds the error message a coordinator will read
	// back.
	maxErrBytes = 1 << 16
)

// writeJob sends one work order.
func writeJob(w io.Writer, job Job) error {
	payload, err := json.Marshal(job)
	if err != nil {
		return fmt.Errorf("shard: encoding job: %w", err)
	}
	if len(payload) > maxJobBytes {
		return fmt.Errorf("shard: job payload is %d bytes, over the %d-byte bound", len(payload), maxJobBytes)
	}
	hdr := make([]byte, len(jobMagic)+4)
	copy(hdr, jobMagic)
	binary.LittleEndian.PutUint32(hdr[len(jobMagic):], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readJob receives one work order on the worker side.
func readJob(r io.Reader) (Job, error) {
	var job Job
	hdr := make([]byte, len(jobMagic)+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return job, fmt.Errorf("shard: reading job header: %w", err)
	}
	if string(hdr[:len(jobMagic)]) != jobMagic {
		return job, fmt.Errorf("shard: bad job magic %q", hdr[:len(jobMagic)])
	}
	n := binary.LittleEndian.Uint32(hdr[len(jobMagic):])
	if n == 0 || n > maxJobBytes {
		return job, fmt.Errorf("shard: job payload length %d outside (0, %d]", n, maxJobBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return job, fmt.Errorf("shard: reading job payload: %w", err)
	}
	if err := json.Unmarshal(payload, &job); err != nil {
		return job, fmt.Errorf("shard: decoding job: %w", err)
	}
	return job, nil
}

// writeTree streams the finished shard tree back to the coordinator
// and returns the snapshot bytes sent (prefix included). The
// fault.ShardStream point sits after the ok status goes out — firing
// it models a worker dying with a half-sent tree on the wire, which
// the coordinator must surface as a typed shard failure.
func writeTree(w io.Writer, t *ctree.Tree) (int64, error) {
	if _, err := io.WriteString(w, treeMagic); err != nil {
		return 0, err
	}
	if _, err := w.Write([]byte{statusOK}); err != nil {
		return 0, err
	}
	if err := fault.Inject(fault.ShardStream); err != nil {
		// Tear the stream believably: the size prefix goes out, the
		// body never follows.
		var prefix [8]byte
		binary.LittleEndian.PutUint64(prefix[:], uint64(treeio.SnapshotSize(t)))
		w.Write(prefix[:])
		return 0, err
	}
	return treeio.SaveStream(w, t)
}

// writeError reports a failed job back to the coordinator. A snapshot
// the worker's load refused goes out as a format error, so that the
// coordinator returns a *treeio.FormatError too.
func writeError(w io.Writer, jobErr error) error {
	status, msg := byte(statusErr), []byte(jobErr.Error())
	var fe *treeio.FormatError
	if errors.As(jobErr, &fe) {
		text := fe.Msg
		if text == "" && fe.Err != nil {
			text = fe.Err.Error()
		}
		status, msg = statusFormatErr, []byte(fe.Section+"\x00"+text)
	}
	if len(msg) > maxErrBytes {
		msg = msg[:maxErrBytes]
	}
	buf := make([]byte, len(treeMagic)+1+4, len(treeMagic)+1+4+len(msg))
	copy(buf, treeMagic)
	buf[len(treeMagic)] = status
	binary.LittleEndian.PutUint32(buf[len(treeMagic)+1:], uint32(len(msg)))
	buf = append(buf, msg...)
	_, err := w.Write(buf)
	return err
}

// readTree receives a worker's response: the shard tree on success, or
// the worker's reported failure. trust selects the fast checksum-
// trusting snapshot decode, the default between our own processes:
// every tree a worker sends is one it built or validated in full.
// bytesIn reports the snapshot bytes consumed on success.
func readTree(r io.Reader, trust bool) (t *ctree.Tree, bytesIn int64, err error) {
	hdr := make([]byte, len(treeMagic)+1)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, fmt.Errorf("reading response header: %w", err)
	}
	if string(hdr[:len(treeMagic)]) != treeMagic {
		return nil, 0, fmt.Errorf("bad response magic %q", hdr[:len(treeMagic)])
	}
	switch hdr[len(treeMagic)] {
	case statusOK:
		cr := &countingReader{r: r}
		t, err := treeio.LoadStream(cr, treeio.LoadOptions{TrustChecksums: trust})
		if err != nil {
			return nil, cr.n, fmt.Errorf("decoding shard tree: %w", err)
		}
		return t, cr.n, nil
	case statusErr, statusFormatErr:
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, 0, fmt.Errorf("reading error frame: %w", err)
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxErrBytes {
			return nil, 0, fmt.Errorf("error frame length %d over the %d-byte bound", n, maxErrBytes)
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(r, msg); err != nil {
			return nil, 0, fmt.Errorf("reading error frame: %w", err)
		}
		if hdr[len(treeMagic)] == statusFormatErr {
			section, text, _ := strings.Cut(string(msg), "\x00")
			return nil, 0, fmt.Errorf("worker refused the snapshot: %w", &treeio.FormatError{Section: section, Msg: text})
		}
		return nil, 0, fmt.Errorf("worker refused the job: %s", msg)
	default:
		return nil, 0, fmt.Errorf("unknown response status %d", hdr[len(treeMagic)])
	}
}

// countingReader counts bytes consumed, for the ShardBytesStreamed
// observability counter.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
