package sqlmini

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"bpagg"
	"bpagg/internal/catalog"
)

// EXPLAIN ANALYZE: the query executes normally, with its own stats
// collector, and the result is the plan instead of the rows. Every store
// and every statement has the same two-line shape, because there is one
// executor (exec.go):
//
//	query
//	└─ stage detail [tier]
//
// stage is scan+agg (one result row), group+agg (one row per group) or
// range (one result row over a rownum range); a grouped statement under a
// rownum range is a group+agg whose detail names the rows. The tier is
// the engine's own answer: [fused] or [two-phase] on scan+agg
// (ShardedQuery.Fused; absent when every shard was pruned, since neither
// ran), [direct tier] or [hash tier] on group+agg (ShardedGrouped.Strategy
// — the packed key width picks it, so it prints even for a fully pruned
// statement); a range stage shows how it was served by its
// index_segments and scans counters. Every stage carries
// shards_scanned/shards_pruned summed over its fan-outs — a flat table is
// one shard. The counters are the stage's whole cost: the filter scans
// are not broken out per predicate.
//
// Every counter on a node comes from the ExecStats machinery (DESIGN.md
// §8), so the plan's numbers are the same ones a caller would get from
// bpagg.CollectStats — a property the explain tests cross-check.

// PlanNode is one stage of an executed EXPLAIN ANALYZE plan.
type PlanNode struct {
	// Op identifies the stage: "query", "scan+agg", "group+agg" or
	// "range".
	Op string
	// Detail is the stage's SQL-ish description (aggregate list, row
	// range, grouping columns, predicates) and its tier tag.
	Detail string
	// Rows is the stage's output cardinality: matching rows for scan+agg
	// and range, groups for group+agg, result rows for query.
	Rows uint64
	// Stats holds the counters recorded while this stage ran.
	Stats bpagg.ExecStats
	// Wall is the stage's wall-clock time.
	Wall     time.Duration
	Children []*PlanNode
}

// ExplainResult is an executed EXPLAIN ANALYZE query.
type ExplainResult struct {
	Root *PlanNode
}

// ExplainAnalyze runs q and returns its plan tree. The query must have
// Explain semantics in mind but the flag itself is not consulted, so
// programmatically built queries can be explained too.
func ExplainAnalyze(cat *catalog.Catalog, q *Query, o ExecOptions) (*ExplainResult, error) {
	return ExplainAnalyzeContext(context.Background(), cat, q, o)
}

// ExplainAnalyzeContext is ExplainAnalyze honoring ctx, with the same
// cancellation and panic-recovery contract as ExecuteContext.
func ExplainAnalyzeContext(ctx context.Context, cat *catalog.Catalog, q *Query, o ExecOptions) (res *ExplainResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("sql: internal error explaining query: %v", r)
		}
	}()
	queryStart := time.Now()
	b, err := bind(cat, q)
	if err != nil {
		return nil, err
	}
	rec := bpagg.NewStatsCollector()
	sq, err := buildQuery(cat, b.preds, o, rec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	r, err := b.run(ctx, cat, q, sq)
	if err != nil {
		return nil, err
	}
	stage := &PlanNode{Op: "scan+agg", Detail: selectList(q), Stats: rec.Snapshot(), Wall: time.Since(t0)}
	root := &PlanNode{Op: "query", Rows: 1, Children: []*PlanNode{stage}}
	var tier string
	switch {
	case len(q.GroupBy) != 0:
		tier = r.tier.String() + " tier" // the key widths pick it, pruned or not
	case b.rng != nil || stage.Stats.ShardsScanned == 0:
		// A range is told by its counters; with every shard pruned
		// neither scan route ran.
	case r.fused:
		tier = "fused"
	default:
		tier = "two-phase"
	}
	if b.rng != nil {
		stage.Op = "range"
		stage.Detail += fmt.Sprintf(" rows [%d, %d)", b.rng.lo, b.rng.hi)
	}
	if len(q.GroupBy) != 0 {
		stage.Op = "group+agg"
		stage.Detail += " by " + strings.Join(q.GroupBy, ", ")
		stage.Rows, root.Rows = uint64(len(r.rows)), uint64(len(r.rows))
	} else {
		// Matching-row cardinality is plan decoration the aggregates never
		// compute; count it on a stats-free twin so the recorded counters
		// stay exactly what execution cost.
		cq, err := buildQuery(cat, b.preds, o, nil)
		if err != nil {
			return nil, err
		}
		var src source = cq
		if b.rng != nil {
			src = cq.Range(b.rng.lo, b.rng.hi)
		}
		if stage.Rows, err = src.CountRowsContext(ctx); err != nil {
			return nil, err
		}
	}
	if len(b.rest) > 0 {
		conds := make([]string, len(b.rest))
		for i, c := range b.rest {
			conds[i] = c.String()
		}
		stage.Detail += " where " + strings.Join(conds, " AND ")
	}
	if tier != "" {
		stage.Detail += " [" + tier + "]"
	}
	root.Wall = time.Since(queryStart)
	// EXPLAIN ANALYZE executes the query for real, so a session-level
	// collector must see its work too.
	o.Stats.Record(stage.Stats)
	return &ExplainResult{Root: root}, nil
}

// selectList renders the aggregate list for the plan's stage.
func selectList(q *Query) string {
	parts := make([]string, len(q.Selects))
	for i, s := range q.Selects {
		parts[i] = s.Label()
	}
	return strings.Join(parts, ", ")
}

// Render writes the plan as an indented tree. With normalizeTimes set,
// every duration prints as "<dur>" — the stable form the golden-file
// tests compare against.
func (e *ExplainResult) Render(w io.Writer, normalizeTimes bool) error {
	return renderNode(w, e.Root, "", "", normalizeTimes)
}

// Lines returns the rendered plan split into lines, for callers that
// present plans row-wise (the CLI wraps them in a Result).
func (e *ExplainResult) Lines(normalizeTimes bool) []string {
	var b strings.Builder
	e.Render(&b, normalizeTimes)
	return strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
}

func renderNode(w io.Writer, n *PlanNode, prefix, childPrefix string, norm bool) error {
	if _, err := fmt.Fprintf(w, "%s%s\n", prefix, n.describe(norm)); err != nil {
		return err
	}
	for i, c := range n.Children {
		branch, cont := "├─ ", "│  "
		if i == len(n.Children)-1 {
			branch, cont = "└─ ", "   "
		}
		if err := renderNode(w, c, childPrefix+branch, childPrefix+cont, norm); err != nil {
			return err
		}
	}
	return nil
}

// describe renders one node line: op, detail, then the stage's counters.
func (n *PlanNode) describe(norm bool) string {
	dur := func(d time.Duration) string {
		if norm {
			return "<dur>"
		}
		return d.Round(time.Microsecond).String()
	}
	var b strings.Builder
	b.WriteString(n.Op)
	if n.Detail != "" {
		b.WriteString(" ")
		b.WriteString(n.Detail)
	}
	var fields []string
	add := func(format string, args ...any) {
		fields = append(fields, fmt.Sprintf(format, args...))
	}
	if n.Op == "group+agg" {
		add("groups=%d", n.Rows)
	} else {
		add("rows=%d", n.Rows)
	}
	if n.Op != "query" {
		add("shards_scanned=%d", n.Stats.ShardsScanned)
		add("shards_pruned=%d", n.Stats.ShardsPruned)
		add("aggs=%d", n.Stats.Aggregates)
		add("scans=%d", n.Stats.Scans)
		add("pruned_none=%d", n.Stats.SegmentsPrunedNone)
		add("pruned_all=%d", n.Stats.SegmentsPrunedAll)
		add("cache_served=%d", n.Stats.SegmentsCacheServed)
		add("words_compared=%d", n.Stats.WordsCompared)
		add("words_touched=%d", n.Stats.WordsTouched)
		switch n.Op {
		case "range":
			add("index_segments=%d", n.Stats.SegmentsIndexServed)
			add("fringe_words=%d", n.Stats.RangeFringeWords)
		case "group+agg":
			add("bank_words=%d", n.Stats.GroupBankWords)
			if n.Stats.HashProbes > 0 || n.Stats.HashGrowths > 0 {
				add("hash_probes=%d", n.Stats.HashProbes)
				add("hash_growths=%d", n.Stats.HashGrowths)
			}
		}
		if n.Stats.RadixRounds > 0 {
			add("radix_rounds=%d", n.Stats.RadixRounds)
		}
		if n.Stats.ReconstructedRows > 0 {
			add("reconstructed=%d", n.Stats.ReconstructedRows)
		}
		add("busy=%s", dur(n.Stats.WorkerBusy()))
	}
	add("time=%s", dur(n.Wall))
	b.WriteString(" (")
	b.WriteString(strings.Join(fields, ", "))
	b.WriteString(")")
	return b.String()
}
