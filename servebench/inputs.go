package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"sketchtree"
	"sketchtree/internal/core"
	"sketchtree/internal/datagen"
	"sketchtree/internal/enum"
	"sketchtree/internal/tree"
)

// inputs are everything a workload sends, generated from the seed. The
// daemons only ever see the HTTP bodies and the preload file.
type inputs struct {
	Preload []byte   // forest document (nil when the workload preloads nothing)
	Docs    [][]byte // ingest bodies, one XML document each, cycled
	Catalog []catalogEntry
	draws   *zipf
	seed    uint64

	// trees caches the parsed form of Docs for the in-process
	// reference, index for index.
	trees []*sketchtree.Tree
	// preloadTrees is the parsed preload forest, in document order.
	preloadTrees []*sketchtree.Tree
}

// catalogEntry is one distinct query of the catalog.
type catalogEntry struct {
	Kind      string   // ordered, unordered or set
	WithError bool     // ordered only
	Patterns  []string // S-expressions; one, or three for a set
	Body      []byte   // the POST /query body
	nodes     []*sketchtree.Node
}

func makeInputs(spec workloadSpec, seed uint64) (*inputs, error) {
	n := poolDocs + spec.Preload
	var src *datagen.Source
	switch spec.Corpus {
	case "TREEBANK":
		src = datagen.Treebank(seed, n)
	case "DBLP":
		src = datagen.DBLP(seed, n)
	default:
		return nil, fmt.Errorf("unknown corpus %q", spec.Corpus)
	}
	var all [][]byte
	var buf bytes.Buffer
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		buf.Reset()
		if err := t.Root.WriteXML(&buf); err != nil {
			return nil, err
		}
		all = append(all, append([]byte(nil), buf.Bytes()...))
	}
	in := &inputs{seed: seed}
	if spec.Preload > 0 {
		var f bytes.Buffer
		f.WriteString("<corpus>\n")
		for _, d := range all[:spec.Preload] {
			f.Write(d)
			f.WriteByte('\n')
		}
		f.WriteString("</corpus>\n")
		in.Preload = f.Bytes()
		err := sketchtree.StreamXMLForest(bytes.NewReader(in.Preload), func(t *sketchtree.Tree) error {
			in.preloadTrees = append(in.preloadTrees, t)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("parsing preload: %w", err)
		}
	}
	in.Docs = all[spec.Preload:]
	in.trees = make([]*sketchtree.Tree, len(in.Docs))
	for i, d := range in.Docs {
		t, err := sketchtree.ParseXML(bytes.NewReader(d))
		if err != nil {
			return nil, fmt.Errorf("parsing document %d: %w", i, err)
		}
		in.trees[i] = t
	}
	// The catalog comes from the corpus head: the preload when there is
	// one, else the first ingest documents.
	head := in.preloadTrees
	if len(head) < catalogDocs {
		head = append(append([]*sketchtree.Tree(nil), head...), in.trees[:catalogDocs-len(head)]...)
	}
	cat, err := makeCatalog(head[:catalogDocs], seed)
	if err != nil {
		return nil, err
	}
	in.Catalog = cat
	in.draws = newZipf(len(cat), catalogZipfS)
	return in, nil
}

// doc returns the i-th ingest document (cycling through the pool) and
// its parsed tree.
func (in *inputs) doc(i int) ([]byte, *sketchtree.Tree) {
	j := i % len(in.Docs)
	return in.Docs[j], in.trees[j]
}

// drawer returns a deterministic stream of catalog indices for one
// connection, Zipf-skewed toward the head of the catalog.
func (in *inputs) drawer(stream uint64) func() int {
	rng := rand.New(rand.NewPCG(in.seed, 0xca7a1090+stream))
	return func() int { return in.draws.draw(rng) }
}

// kindCycle assigns query kinds by popularity rank: of every ten ranks,
// six are ordered, two unordered, one a set of three and one ordered
// with error bars. Fixing the kind (and the pattern size, see
// makeCatalog) per rank keeps the cost of the Zipf-heavy head the same
// across seeds; the seed only picks which patterns fill the slots.
var kindCycle = []string{"ordered", "ordered", "unordered", "ordered", "set", "ordered", "with_error", "ordered", "unordered", "ordered"}

// makeCatalog collects the distinct ordered patterns of docs by edge
// count (1..k), shuffles each pool with the seed, and deals them into
// catalogSize queries. Rank r gets kind kindCycle[r%10] and patterns of
// 1 + (r + r/10) % k edges.
func makeCatalog(docs []*sketchtree.Tree, seed uint64) ([]catalogEntry, error) {
	en, err := enum.NewEnumerator(cfgK)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	pools := make([][]string, cfgK+1)
	for _, t := range docs {
		en.Reset()
		err := en.ForEach(t.Root, func(p *enum.Pattern) error {
			s := p.String()
			if !seen[s] {
				seen[s] = true
				pools[p.Edges()] = append(pools[p.Edges()], s)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xca7a1000))
	for _, pool := range pools {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	next := make([]int, cfgK+1)
	take := func(edges int) (string, error) {
		if next[edges] >= len(pools[edges]) {
			return "", fmt.Errorf("corpus head has only %d distinct %d-edge patterns", len(pools[edges]), edges)
		}
		next[edges]++
		return pools[edges][next[edges]-1], nil
	}
	cat := make([]catalogEntry, catalogSize)
	for i := range cat {
		e := catalogEntry{Kind: kindCycle[i%len(kindCycle)]}
		edges := 1 + (i+i/len(kindCycle))%cfgK
		arity := 1
		switch e.Kind {
		case "set":
			arity = 3
		case "with_error":
			e.Kind, e.WithError = "ordered", true
		}
		for j := 0; j < arity; j++ {
			p, err := take(edges)
			if err != nil {
				return nil, err
			}
			e.Patterns = append(e.Patterns, p)
			node, err := sketchtree.ParsePattern(p)
			if err != nil {
				return nil, fmt.Errorf("catalog pattern %q: %w", p, err)
			}
			e.nodes = append(e.nodes, node)
		}
		e.Body, err = queryBody(e)
		if err != nil {
			return nil, err
		}
		cat[i] = e
	}
	return cat, nil
}

func queryBody(e catalogEntry) ([]byte, error) {
	req := struct {
		Kind      string   `json:"kind"`
		Pattern   string   `json:"pattern,omitempty"`
		Patterns  []string `json:"patterns,omitempty"`
		WithError bool     `json:"with_error,omitempty"`
	}{Kind: e.Kind, WithError: e.WithError}
	if e.Kind == "set" {
		req.Patterns = e.Patterns
	} else {
		req.Pattern = e.Patterns[0]
	}
	return json.Marshal(req)
}

// answer is one query's estimate, with the error bar when requested.
type answer struct {
	Estimate float64     `json:"estimate"`
	StdErr   *float64    `json:"std_err"`
	CI95     *[2]float64 `json:"ci95"`
	Trees    int64       `json:"snapshot_trees"`
}

func (a answer) equal(b answer) bool {
	if a.Estimate != b.Estimate || (a.StdErr == nil) != (b.StdErr == nil) || (a.CI95 == nil) != (b.CI95 == nil) {
		return false
	}
	if a.StdErr != nil && *a.StdErr != *b.StdErr {
		return false
	}
	return a.CI95 == nil || *a.CI95 == *b.CI95
}

// querier is the estimator surface shared by SketchTree and Safe.
type querier interface {
	CountOrdered(q *sketchtree.Node) (float64, error)
	CountUnordered(q *sketchtree.Node) (float64, error)
	CountOrderedSet(qs []*sketchtree.Node) (float64, error)
	CountOrderedWithError(q *sketchtree.Node) (sketchtree.Estimate, error)
}

// ask answers e in-process, the way the daemon's /query handler does.
func (e catalogEntry) ask(q querier) (answer, error) {
	switch {
	case e.Kind == "set":
		v, err := q.CountOrderedSet(e.nodes)
		return answer{Estimate: v}, err
	case e.Kind == "unordered":
		v, err := q.CountUnordered(e.nodes[0])
		return answer{Estimate: v}, err
	case e.WithError:
		est, err := q.CountOrderedWithError(e.nodes[0])
		se, ci := est.StdErr, est.CI95
		return answer{Estimate: est.Value, StdErr: &se, CI95: &ci}, err
	default:
		v, err := q.CountOrdered(e.nodes[0])
		return answer{Estimate: v}, err
	}
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	acc := 0.0
	for i := range cdf {
		acc += 1 / math.Pow(float64(i+1), s)
		cdf[i] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	cdf[n-1] = 1
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int { return sort.SearchFloat64s(z.cdf, rng.Float64()) }

// exactCounter holds exact pattern counts over a document multiset: a
// one-row, one-stream engine that tracks the exact baseline, whose
// pattern values come from the same fingerprint family (same seed) as
// every served engine.
type exactCounter struct{ e *core.Engine }

func newExactCounter() (*exactCounter, error) {
	cfg := core.DefaultConfig()
	cfg.MaxPatternEdges, cfg.S1, cfg.S2, cfg.VirtualStreams = cfgK, 1, 1, 1
	cfg.TopK, cfg.Seed, cfg.TrackExact = 0, cfgSeed, true
	e, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &exactCounter{e: e}, nil
}

func (c *exactCounter) add(t *tree.Tree) error { return c.e.AddTree(t) }

func (c *exactCounter) ordered(q *tree.Node) float64 {
	return float64(c.e.Exact().Count(c.e.PatternValue(q)))
}

// truth returns the exact answer to e: a set sums its members; an
// unordered pattern sums its distinct ordered arrangements.
func (c *exactCounter) truth(e catalogEntry) (float64, error) {
	switch e.Kind {
	case "set":
		s := 0.0
		for _, n := range e.nodes {
			s += c.ordered(n)
		}
		return s, nil
	case "unordered":
		arr, err := core.Arrangements(e.nodes[0], 0)
		if err != nil {
			return 0, err
		}
		vals := map[uint64]bool{}
		s := 0.0
		for _, a := range arr {
			v := c.e.PatternValue(a)
			if !vals[v] {
				vals[v] = true
				s += float64(c.e.Exact().Count(v))
			}
		}
		return s, nil
	default:
		return c.ordered(e.nodes[0]), nil
	}
}

// relErr is the paper's relative error of one estimate: the sanity
// bound replaces a negative estimate, and a zero truth counts as 1.
func relErr(est, truth float64) float64 {
	est = core.SanityBound(est, truth)
	return math.Abs(est-truth) / math.Max(truth, 1)
}
