package graph

import (
	"encoding/binary"
	"fmt"
)

// Bounds-checked varint primitives shared by every wire decoder in the
// repository (graph, partition, engine, queries, store): network and disk
// input must error, never panic.

// ReadUvarint decodes one unsigned varint from data at *pos, advancing it.
// Only the minimal encoding, the one binary.AppendUvarint writes, is a
// varint: a longer one (a last byte of 0 after the first) names the same
// number in other bytes, so a decoded frame would not re-encode to itself.
func ReadUvarint(data []byte, pos *int) (uint64, error) {
	v, n := binary.Uvarint(data[*pos:])
	if n <= 0 || n > 1 && data[*pos+n-1] == 0 {
		return 0, fmt.Errorf("wire: bad varint at offset %d", *pos)
	}
	*pos += n
	return v, nil
}

// ReadString decodes one length-prefixed string from data at *pos,
// advancing it.
func ReadString(data []byte, pos *int) (string, error) {
	n, err := ReadUvarint(data, pos)
	if err != nil {
		return "", err
	}
	if uint64(len(data)-*pos) < n {
		return "", fmt.Errorf("wire: truncated string at offset %d", *pos)
	}
	s := string(data[*pos : *pos+int(n)])
	*pos += int(n)
	return s, nil
}
