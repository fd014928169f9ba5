package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/sim"
)

// The trace file format: a magic header, the entity table, the shard
// summaries, then the merged records as fixed 34-byte little-endian
// values. Everything is length-prefixed, nothing is compressed — the
// format is meant to be trivially re-readable by other tools.
//
//	magic   "MPTRACE1"                                  8 B
//	u32     entity count
//	entity  u32 id, u8 kind, u32 parent, u16 len, name
//	u32     shard count
//	shard   u64 records, u64 dropped, u16 len, name
//	u64     record count
//	record  i64 at, u64 seq, u64 aux, u32 ent, u32 len, u8 kind, u8 flag

var magic = [8]byte{'M', 'P', 'T', 'R', 'A', 'C', 'E', '1'}

const recordSize = 8 + 8 + 8 + 4 + 4 + 1 + 1

func putRecord(b []byte, r *Record) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(r.At))
	le.PutUint64(b[8:], r.Seq)
	le.PutUint64(b[16:], r.Aux)
	le.PutUint32(b[24:], r.Ent)
	le.PutUint32(b[28:], r.Len)
	b[32] = byte(r.Kind)
	b[33] = r.Flag
}

func getRecord(b []byte) Record {
	le := binary.LittleEndian
	return Record{
		At:   sim.Time(le.Uint64(b[0:])),
		Seq:  le.Uint64(b[8:]),
		Aux:  le.Uint64(b[16:]),
		Ent:  le.Uint32(b[24:]),
		Len:  le.Uint32(b[28:]),
		Kind: Kind(b[32]),
		Flag: b[33],
	}
}

// Encode streams the snapshot in the trace file format.
func (d *Data) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	le := binary.LittleEndian
	var scratch [recordSize]byte
	writeString := func(s string) error {
		le.PutUint16(scratch[:2], uint16(len(s)))
		if _, err := bw.Write(scratch[:2]); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}

	le.PutUint32(scratch[:4], uint32(len(d.Entities)))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	for _, e := range d.Entities {
		le.PutUint32(scratch[0:], e.ID)
		scratch[4] = byte(e.Kind)
		le.PutUint32(scratch[5:], e.Parent)
		if _, err := bw.Write(scratch[:9]); err != nil {
			return err
		}
		if err := writeString(e.Name); err != nil {
			return err
		}
	}

	le.PutUint32(scratch[:4], uint32(len(d.Shards)))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	for _, sh := range d.Shards {
		le.PutUint64(scratch[0:], sh.Records)
		le.PutUint64(scratch[8:], sh.Dropped)
		if _, err := bw.Write(scratch[:16]); err != nil {
			return err
		}
		if err := writeString(sh.Name); err != nil {
			return err
		}
	}

	le.PutUint64(scratch[:8], uint64(len(d.Records)))
	if _, err := bw.Write(scratch[:8]); err != nil {
		return err
	}
	for i := range d.Records {
		putRecord(scratch[:], &d.Records[i])
		if _, err := bw.Write(scratch[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the snapshot to path.
func (d *Data) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a trace file stream back into a Data.
func Read(r io.Reader) (*Data, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var scratch [recordSize]byte
	if _, err := io.ReadFull(br, scratch[:8]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if [8]byte(scratch[:8]) != magic {
		return nil, fmt.Errorf("trace: not a trace file (bad magic %q)", scratch[:8])
	}
	readString := func() (string, error) {
		if _, err := io.ReadFull(br, scratch[:2]); err != nil {
			return "", err
		}
		b := make([]byte, le.Uint16(scratch[:2]))
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	d := &Data{}
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, fmt.Errorf("trace: reading entity count: %w", err)
	}
	nEnts := int(le.Uint32(scratch[:4]))
	for i := 0; i < nEnts; i++ {
		if _, err := io.ReadFull(br, scratch[:9]); err != nil {
			return nil, fmt.Errorf("trace: reading entity %d: %w", i, err)
		}
		e := Entity{ID: le.Uint32(scratch[0:]), Kind: EntKind(scratch[4]), Parent: le.Uint32(scratch[5:])}
		var err error
		if e.Name, err = readString(); err != nil {
			return nil, fmt.Errorf("trace: reading entity %d name: %w", i, err)
		}
		d.Entities = append(d.Entities, e)
	}

	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, fmt.Errorf("trace: reading shard count: %w", err)
	}
	nShards := int(le.Uint32(scratch[:4]))
	for i := 0; i < nShards; i++ {
		if _, err := io.ReadFull(br, scratch[:16]); err != nil {
			return nil, fmt.Errorf("trace: reading shard %d: %w", i, err)
		}
		sh := ShardInfo{Records: le.Uint64(scratch[0:]), Dropped: le.Uint64(scratch[8:])}
		var err error
		if sh.Name, err = readString(); err != nil {
			return nil, fmt.Errorf("trace: reading shard %d name: %w", i, err)
		}
		d.Dropped += sh.Dropped
		d.Shards = append(d.Shards, sh)
	}

	if _, err := io.ReadFull(br, scratch[:8]); err != nil {
		return nil, fmt.Errorf("trace: reading record count: %w", err)
	}
	nRecs := le.Uint64(scratch[:8])
	// The count is untrusted input: preallocate a little and let append
	// grow with the records that really arrive, so a corrupt header costs
	// no more than the bytes behind it before the ReadFull below fails.
	d.Records = make([]Record, 0, min(nRecs, 1<<10))
	for i := uint64(0); i < nRecs; i++ {
		if _, err := io.ReadFull(br, scratch[:recordSize]); err != nil {
			return nil, fmt.Errorf("trace: reading record %d of %d: %w", i, nRecs, err)
		}
		d.Records = append(d.Records, getRecord(scratch[:]))
	}
	return d, nil
}

// ReadFile parses a trace file from disk.
func ReadFile(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
