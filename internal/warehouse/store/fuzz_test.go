package store

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// FuzzParseSegment feeds arbitrary segment bodies to parseSegment. The
// harness signs each body with a valid CRC footer, so inputs get past
// the checksum to the header and directory checks. parseSegment never
// panics, and a segment it accepts materializes without panicking.
func FuzzParseSegment(f *testing.F) {
	for _, sd := range []*SegmentData{
		sampleSegment(13),
		NewSegmentData(1, []Column{{Type: TypeInt, Ints: []int64{7}}}),
		NewSegmentData(1, []Column{{Type: TypeString, Strs: []string{"abc"}}}),
	} {
		var buf bytes.Buffer
		if _, err := writeSegment(&buf, sd); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[:buf.Len()-footerSize])
	}
	f.Add([]byte(segMagic))
	f.Fuzz(func(t *testing.T, body []byte) {
		m := make([]byte, len(body)+footerSize)
		copy(m, body)
		putU32(m[len(body):], crc32.Checksum(body, castagnoli))
		copy(m[len(body)+4:], segEndMagic)
		meta, err := parseSegment(m)
		if err != nil {
			return
		}
		materialize(m, meta, nil)
	})
}
