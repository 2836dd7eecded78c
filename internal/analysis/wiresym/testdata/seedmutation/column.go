// Package codec is a stdlib-only mirror of the real column wire format
// for the wiresym seed-mutation self-test: count(uvarint), a 4-byte
// little-endian checksum, then per-cell uvarints. The writer and reader
// are symmetric; the self-test mutates the reader's fixed-width read to
// a narrower (or wrong-endian) form and requires the analyzer to flag
// exactly that asymmetry.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

func writeColumn(bw *bufio.Writer, vals []uint32) error {
	if err := putUvarint(bw, uint64(len(vals))); err != nil {
		return err
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:4], checksum(vals))
	if _, err := bw.Write(buf[:4]); err != nil {
		return err
	}
	for _, v := range vals {
		if err := putUvarint(bw, uint64(v)); err != nil {
			return err
		}
	}
	return nil
}

func readColumn(br *bufio.Reader) ([]uint32, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("implausible cell count %d", n)
	}
	var buf [4]byte
	if _, err := io.ReadFull(br, buf[:4]); err != nil {
		return nil, err
	}
	want := uint64(binary.LittleEndian.Uint32(buf[:4]))
	out := make([]uint32, 0, n)
	for i := uint64(0); i < n; i++ {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		out = append(out, uint32(v))
	}
	if uint64(checksum(out)) != want {
		return nil, fmt.Errorf("column checksum mismatch")
	}
	return out, nil
}

// putUvarint appends v to bw's free buffer space, so no per-value
// buffer escapes to the heap.
func putUvarint(bw *bufio.Writer, v uint64) error {
	_, err := bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v))
	return err
}

func checksum(vals []uint32) uint32 {
	var s uint32
	for _, v := range vals {
		s = s*31 + v
	}
	return s
}
