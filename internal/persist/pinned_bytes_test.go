package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"coverage/internal/engine"
	"coverage/internal/mup"
)

// TestPinnedFileBytes pins the bytes the writers produce: a seeded
// schedule at 1 and 3 shards, with a sliding window holding tombstones
// and without a window, is written as a full snapshot and then as two
// chained deltas, and the SHA-256 of each file must equal the digest
// recorded here. A change to how State or StateDelta holds its tables
// must leave every byte of both formats as it was; a format change
// must bump the version and update these digests on purpose.
func TestPinnedFileBytes(t *testing.T) {
	want := map[string][3]string{
		"shards=1/window=false": {
			"0e3919be2e1088172f4b0144a962e8f7956475845a595e8692abf3b126ca71f2",
			"9ddb12015aacaee9525ec8ea14ba9472664c7b61d793a280ae02e8e3c2e0df23",
			"f0415d7bddbfa63300777b50bae24f0b77fbdb870a4aa2cfd79fd5932f49f668",
		},
		"shards=1/window=true": {
			"fa456f991f86921339d82065096736d59467d1f400e2c7ad5e2ef130eb4ab7d2",
			"61b98d00f9b5fcaa442828af45d67dd2f6fcc898792744ffd7f5daa70bb424e0",
			"9186e0e481ba075b0a1227bcfc3fbaa2c7386129e5601d5bdb1be540ab48ad34",
		},
		"shards=3/window=false": {
			"ed614e867b1bc4b689da358f3be37f8e7e89818f3d2eb4fc150004c32425d75e",
			"43a72b6b33a9a1315736b1d6249809cfb1ff5d49232de0fb8eb2e6442095608e",
			"6af368ae2c151c03857388ebdcf48698c70c4e6c818785d6f599ca9b16ff70c8",
		},
		"shards=3/window=true": {
			"b8fa7365a198af0da46b4c939c215aaa216910cc0bb68db1379bbc2c27037755",
			"997f111d2f49e4217d320e58d587398fe38b9c7bca4f83e928422cb3716515a9",
			"037afa578a0196dae453d89d7dec865eb70ab9b19d37e4c09257e5e8e4596ec6",
		},
	}
	for _, shards := range []int{1, 3} {
		for _, windowed := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/window=%v", shards, windowed)
			t.Run(name, func(t *testing.T) {
				got := pinnedDigests(t, shards, windowed)
				if got != want[name] {
					t.Errorf("file digests (snapshot, delta 1, delta 2)\n got %q\nwant %q", got, want[name])
				}
			})
		}
	}
}

// pinnedDigests runs the pinned schedule and returns the digests of
// the snapshot and the two chained deltas it writes. One worker keeps
// the cached searches' probe counts independent of the host.
func pinnedDigests(t *testing.T, shards int, windowed bool) [3]string {
	t.Helper()
	eng := engine.NewSharded(testSchema(), shards, engine.Options{Workers: 1})
	rng := rand.New(rand.NewSource(int64(31 + shards)))
	cards := eng.Cards()
	dim := len(cards)
	mutate := func(appends, deletes int) {
		t.Helper()
		if err := eng.Append(randomBatch(rng, cards, appends)); err != nil {
			t.Fatal(err)
		}
		if rows := deletableRows(rng, eng, deletes); len(rows) > 0 {
			if err := eng.Delete(rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	search := func(tau int64) {
		t.Helper()
		if _, err := eng.MUPs(mup.Options{Threshold: tau}); err != nil {
			t.Fatal(err)
		}
	}
	digest := func(write func(*bytes.Buffer) error) string {
		t.Helper()
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}

	for i := 0; i < 4; i++ {
		mutate(12, 3)
	}
	search(2)
	if windowed {
		eng.SetWindow(30)
		mutate(6, 4)
		if eng.Stats().Tombstones == 0 {
			t.Fatal("the windowed schedule holds no tombstones")
		}
	}

	var out [3]string
	capture := eng.CaptureState()
	out[0] = digest(func(w *bytes.Buffer) error {
		_, err := WriteSnapshot(w, capture.State())
		return err
	})
	base := capture.Baseline()
	for link := 1; link <= 2; link++ {
		mutate(5, 2)
		search(int64(1 + link))
		d, next, ok := eng.CaptureDelta(base)
		if !ok {
			t.Fatalf("delta %d not expressible", link)
		}
		out[link] = digest(func(w *bytes.Buffer) error {
			_, err := WriteDelta(w, d, dim)
			return err
		})
		base = next
	}
	if windowed && eng.Stats().Tombstones == 0 {
		t.Fatal("the windowed schedule ends with no tombstones")
	}
	return out
}
