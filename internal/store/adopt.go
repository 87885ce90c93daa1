package store

import (
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// adopt brings a data directory of the earlier three-file layout into the
// store, best-effort and idempotent, so a crash half-way is finished by the
// next Open:
//
//	traces/<digest>.trace   the uploaded bytes → become traces/<digest>
//	traces/<digest>.tbl     the event table     → deleted (derived)
//	results/<key>.cstr      encoded structures  → deleted (derived)
//	results/.tmp-*          a crashed write     → deleted
//
// A library cache kept its .cstr and .tmp-* files in the root itself; they
// go too. The trace bytes are never copied: the .trace file gets its
// trailer appended and is renamed into place.
func adopt(root, dir string) {
	entries, _ := os.ReadDir(dir)
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if digest, ok := strings.CutSuffix(name, ".trace"); ok && ValidDigest(digest) {
			adoptTrace(dir, digest)
		} else if strings.HasSuffix(name, ".tbl") {
			os.Remove(filepath.Join(dir, name))
		}
	}
	results := filepath.Join(root, "results")
	for _, d := range []string{root, results} {
		entries, _ := os.ReadDir(d)
		for _, de := range entries {
			if name := de.Name(); !de.IsDir() && (strings.HasSuffix(name, ".cstr") || strings.HasPrefix(name, ".tmp-")) {
				os.Remove(filepath.Join(d, name))
			}
		}
	}
	os.Remove(results) // only if it is empty now
}

// adoptTrace makes traces/<digest>.trace the file traces/<digest>. A file
// that already ends in its trace trailer (an adoption cut short between the
// append and the rename) is only renamed.
func adoptTrace(dir, digest string) {
	src, dst := filepath.Join(dir, digest+".trace"), filepath.Join(dir, digest)
	if _, err := os.Lstat(dst); err == nil {
		os.Remove(src) // uploaded again since, under the new name
		return
	}
	f, err := os.OpenFile(src, os.O_RDWR, 0)
	if err != nil {
		return
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return
	}
	key, _ := parseKey(digest)
	size := info.Size()
	if secs, ok := walk(f, size, key); !ok || len(secs) != 1 {
		h := crc32.New(castagnoli)
		if _, err := io.Copy(h, f); err != nil {
			f.Close()
			return
		}
		sec := section{n: size, crc: h.Sum32(), key: key, kind: Trace}
		if _, err := f.WriteAt(sec.trailer(size), size); err != nil {
			f.Truncate(size)
			f.Close()
			return
		}
	}
	if f.Close() == nil {
		os.Rename(src, dst)
	}
}
