package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"iwscan/internal/scanner"
)

// FuzzCheckpointLoad feeds arbitrary bytes — torn saves, garbage,
// foreign versions, impossible phases — to Load's decoder. It must
// never panic, and any state it accepts must survive Save → Load (the
// same encoder and decoder, without the file I/O) unchanged, the smart
// iterator's phase included. Oversized files never reach the decoder;
// TestLoadRejectsOversized covers them.
func FuzzCheckpointLoad(f *testing.F) {
	smart := sampleState()
	smart.Shards[0].Cursor.Shard.Phase = 1
	smart.Shards[0].Pruned = 17
	smart.Config = FieldList("seed", 9, "smart", "model")
	for _, st := range []*State{sampleState(), smart} {
		data, err := encode(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"version":1,"shards":[{"cursor":{"shard":{"phase":2}}}]}`))
	f.Add([]byte(`{"version":1,"config":[],"metrics":null}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte("{torn"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := decode("fuzz.ck", data)
		if err != nil {
			return
		}
		saved, err := encode(first)
		if err != nil {
			t.Fatalf("encoding a loaded state: %v", err)
		}
		second, err := decode("fuzz.ck", saved)
		if err != nil {
			t.Fatalf("decoding a saved state: %v\n%s", err, saved)
		}
		if !reflect.DeepEqual(first.Shards, second.Shards) {
			t.Fatalf("shards changed over Save → Load:\n%+v\n%+v", first.Shards, second.Shards)
		}
		// Whitespace in the embedded metrics and an empty versus absent
		// config list are not state; the compact encoding compares the rest.
		a, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(second)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("state changed over Save → Load:\n%s\n%s", a, b)
		}
	})
}

// TestLoadRejectsOversized: a file past maxSize is refused before it
// is decoded.
func TestLoadRejectsOversized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.ck")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(maxSize + 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Load(path); err == nil {
		t.Fatal("oversized checkpoint loaded")
	}
}

// TestLoadRejectsUnknownPhase: the scanner writes phase 0 (plain and
// smart phase 0) or 1 (smart phase 1); any other phase is refused.
func TestLoadRejectsUnknownPhase(t *testing.T) {
	dir := t.TempDir()
	for _, phase := range []int{0, 1, 2, -1} {
		st := sampleState()
		st.Shards[0].Cursor = scanner.Cursor{Seq: 5, Shard: scanner.ShardState{Pos: 3, Phase: phase}}
		path := filepath.Join(dir, "p.ck")
		if err := Save(path, st); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if ok := phase == 0 || phase == 1; ok != (err == nil) {
			t.Fatalf("phase %d: Load error %v", phase, err)
		}
		if err == nil && got.Shards[0].Cursor.Shard.Phase != phase {
			t.Fatalf("phase %d loaded as %d", phase, got.Shards[0].Cursor.Shard.Phase)
		}
	}
}
