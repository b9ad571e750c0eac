package catalog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xsketch/internal/cli"
	"xsketch/internal/histogram"
	"xsketch/internal/xsketch"
)

// Ext is the file extension of catalog entries.
const Ext = ".xsb"

// ValidName reports whether name is usable as a catalog entry name: a
// non-empty bare file stem with no path separators or traversal, so
// filepath.Join(dir, name+Ext) always lands inside dir.
func ValidName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, `/\`)
}

// Write encodes the sketch into dir as name+Ext, creating dir if needed.
// The file appears atomically (temp file + fsync + rename), so a
// concurrent Scan or Open never observes a partial entry. It returns the
// written path.
func Write(dir, name string, sk *xsketch.Sketch) (string, error) {
	if !ValidName(name) {
		return "", fmt.Errorf("catalog: invalid entry name %q", name)
	}
	buf, err := EncodeBytes(sk)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("catalog: create directory: %w", err)
	}
	path := filepath.Join(dir, name+Ext)
	if err := cli.WriteFileAtomic(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("catalog: %w", err)
	}
	return path, nil
}

// Open decodes the catalog entry at path with full checksum verification,
// returning the detached sketch and its info (Name derived from the file
// name).
func Open(path string) (*xsketch.Sketch, Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Info{}, fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	sk, info, err := Decode(f)
	if err != nil {
		// The sentinel errors already start with "catalog:".
		return nil, Info{}, fmt.Errorf("open %s: %w", path, err)
	}
	info.Name = entryName(path)
	info.Path = path
	return sk, info, nil
}

// OpenByName opens entry name from dir.
func OpenByName(dir, name string) (*xsketch.Sketch, Info, error) {
	if !ValidName(name) {
		return nil, Info{}, fmt.Errorf("catalog: invalid entry name %q", name)
	}
	return Open(filepath.Join(dir, name+Ext))
}

// Scan lists the catalog entries in dir in name order, reading only each
// file's header and stats prologue (no payload decode, no checksum pass).
// Files that fail the cheap header read are included with Err set so the
// caller can report them; Scan itself fails only when the directory cannot
// be read.
func Scan(dir string) ([]Info, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: scan: %w", err)
	}
	var infos []Info
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), Ext) {
			continue
		}
		path := filepath.Join(dir, de.Name())
		info, err := ReadInfo(path)
		if err != nil {
			info = Info{Err: err}
		}
		info.Name = entryName(path)
		info.Path = path
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// ReadInfo reads a file's header and stats prologue without decoding or
// checksumming the payload: the cheap per-file step behind Scan. Name and
// Path are left for the caller to fill.
func ReadInfo(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Info{}, err
	}
	var buf [headerSize + prologueSize]byte
	if n, err := io.ReadFull(f, buf[:]); err != nil {
		return Info{}, shortHeader(buf[:n], err)
	}
	version, payloadLen, _, err := parseHeader(buf[:headerSize])
	if err != nil {
		return Info{}, err
	}
	if int64(headerSize)+int64(payloadLen) != st.Size() {
		return Info{}, fmt.Errorf("%w: header says %d payload bytes, file has %d",
			ErrCorrupt, payloadLen, st.Size()-headerSize)
	}
	r := histogram.NewByteReader(buf[headerSize:])
	info, err := parsePrologue(r, int(payloadLen)-prologueSize)
	if err != nil {
		return Info{}, err
	}
	info.Version = version
	info.FileBytes = st.Size()
	return info, nil
}

// entryName derives the catalog name from a file path.
func entryName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), Ext)
}
