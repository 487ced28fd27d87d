package enhance

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"coverage/internal/datagen"
	"coverage/internal/dataset"
	"coverage/internal/index"
	"coverage/internal/mup"
	"coverage/internal/pattern"
)

// planShape is one planning problem at a realistic size: a datagen
// corpus, the threshold its MUPs are found at and the level λ its
// targets are expanded to. The first five mirror the benchmark's audit
// cells, the last its refresh tenant.
type planShape struct {
	name  string
	data  func() *dataset.Dataset
	tau   int64
	level int
}

var zipfCards = []int{2, 3, 4, 5, 6, 2, 3, 4, 5, 6}

var planShapes = []planShape{
	{"airbnb13", func() *dataset.Dataset { return datagen.AirBnB(20000, 13, 1) }, 400, 3},
	{"airbnb15", func() *dataset.Dataset { return datagen.AirBnB(10000, 15, 1) }, 800, 3},
	{"bluenile7", func() *dataset.Dataset { return datagen.BlueNile(20000, 1) }, 40, 2},
	{"compas", func() *dataset.Dataset { ds, _ := datagen.COMPAS(6889, 1); return ds }, 10, 3},
	{"zipf10", func() *dataset.Dataset { return datagen.Zipf(20000, zipfCards, 1.2, 1) }, 400, 2},
	{"refresh-airbnb13", func() *dataset.Dataset { return datagen.AirBnB(100000, 13, 1) }, 100, 4},
}

func shapeNamed(name string) planShape {
	for _, s := range planShapes {
		if s.name == name {
			return s
		}
	}
	panic("no plan shape " + name)
}

// shapeProblem is a planShape's schema and sorted target set.
type shapeProblem struct {
	cards   []int
	targets []pattern.Pattern
}

// shapeProblems memoizes problem; no test here runs in parallel.
var shapeProblems = map[string]shapeProblem{}

// problem generates the shape's corpus, finds its MUPs and expands
// them to level-λ targets the way the engine's planner does. Results
// are memoized per shape.
func (s planShape) problem(tb testing.TB) shapeProblem {
	tb.Helper()
	if p, ok := shapeProblems[s.name]; ok {
		return p
	}
	ds := s.data()
	res, err := mup.Search(index.Build(ds), mup.ParallelOptions{Options: mup.Options{Threshold: s.tau}, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := NewTargetSet(res.MUPs, ds.Cards(), Objective{MaxLevel: s.level}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	p := shapeProblem{cards: ds.Cards(), targets: ts.Targets()}
	shapeProblems[s.name] = p
	return p
}

// planDigest hashes every suggestion's Combo and Hits, in order.
func planDigest(p *Plan) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	for _, s := range p.Suggestions {
		h.Write(s.Combo)
		h.Write(buf[:binary.PutUvarint(buf[:], uint64(len(s.Hits)))])
		for _, j := range s.Hits {
			h.Write(buf[:binary.PutUvarint(buf[:], uint64(j))])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPlanDigestsAtRealisticShapes pins the plans of the realistic
// shapes, where the planner's bounds prune hardest: every suggestion's
// combination and hit list must equal the recorded ones, and the
// search must visit exactly the recorded number of tree nodes, so a
// weaker bound fails here even though it selects the same plan.
// FuzzPlanEquivalence's small schemas barely exercise the pruning.
func TestPlanDigestsAtRealisticShapes(t *testing.T) {
	want := map[string]struct {
		digest string
		nodes  int64
	}{
		"airbnb13":         {"c77b2763a521051b", 8764},
		"airbnb15":         {"6befc6ef8fb15bd9", 127626},
		"bluenile7":        {"162b14b6c12d44e8", 870},
		"compas":           {"8dd69a49a8f9b483", 1432},
		"zipf10":           {"684e4f0f1645194f", 185915},
		"refresh-airbnb13": {"afa1d30c17883236", 7720},
	}
	for _, s := range planShapes {
		t.Run(s.name, func(t *testing.T) {
			p := s.problem(t)
			plan, err := Greedy(p.targets, p.cards, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, w := planDigest(plan), want[s.name]
			t.Logf("%d targets, %d suggestions, %d nodes, digest %s", len(p.targets), len(plan.Suggestions), plan.Stats.NodesExplored, got)
			if got != w.digest {
				t.Errorf("plan digest %s, want %s", got, w.digest)
			}
			if plan.Stats.NodesExplored != w.nodes {
				t.Errorf("%d nodes explored, want %d", plan.Stats.NodesExplored, w.nodes)
			}
		})
	}
}

// BenchmarkGreedyPlan times one from-scratch plan at the zipf10 and
// airbnb15 audit shapes and reports the tree nodes the search visited
// per plan.
func BenchmarkGreedyPlan(b *testing.B) {
	for _, name := range []string{"zipf10", "airbnb15"} {
		s := shapeNamed(name)
		b.Run(name, func(b *testing.B) {
			p := s.problem(b)
			b.ReportAllocs()
			b.ResetTimer()
			var nodes int64
			for i := 0; i < b.N; i++ {
				plan, err := Greedy(p.targets, p.cards, nil)
				if err != nil {
					b.Fatal(err)
				}
				nodes += plan.Stats.NodesExplored
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
