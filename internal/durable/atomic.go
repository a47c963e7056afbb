package durable

import (
	"bufio"
	"io"
)

// WriteFileAtomic writes a file so that a crash at any instant leaves
// either the complete old content or the complete new content at name,
// never a prefix: the payload is written to a temp file, synced to
// durable storage, and only then renamed over name. This is the shared
// helper behind snapshot checkpoints and manifest swaps.
func WriteFileAtomic(fsys FS, name string, write func(w io.Writer) error) error {
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Rename(tmp, name)
}
