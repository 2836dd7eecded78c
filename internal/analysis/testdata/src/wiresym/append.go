package codec

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Symmetric pair written through the writer's free buffer: a field
// appended to bw.AvailableBuffer() is that one field. Clean.
func writeLength(bw *bufio.Writer, n uint64, crc uint32) error {
	if _, err := bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), n)); err != nil {
		return err
	}
	_, err := bw.Write(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), crc))
	return err
}

func readLength(br *bufio.Reader) (uint64, uint32, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, err
	}
	var buf [4]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return 0, 0, err
	}
	return n, binary.LittleEndian.Uint32(buf[:]), nil
}

// Appended varint read back as an unsigned uvarint: the zig-zag sign
// encoding is lost.
func writeOffset(bw *bufio.Writer, off int64) error {
	_, err := bw.Write(binary.AppendVarint(bw.AvailableBuffer(), off))
	return err
}

func readOffset(br *bufio.Reader) (int64, error) {
	u, err := binary.ReadUvarint(br) // want "wire-format asymmetry"
	return int64(u), err
}
