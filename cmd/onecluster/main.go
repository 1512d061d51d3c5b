// Command onecluster runs the differentially private 1-cluster algorithm on
// a CSV of points (one point per line, comma-separated coordinates in
// [0,1]) and prints the released ball.
//
// Usage:
//
//	onecluster -t 400 -epsilon 2 -delta 0.05 points.csv
//	cat points.csv | onecluster -t 400
//
// Serving mode: -queries runs several t values against one prepared
// Dataset handle (the index is built once and reused), each query costing
// (-epsilon, -delta), optionally capped by a total -budget; -parallel runs
// them concurrently through the batch executor:
//
//	onecluster -queries 300,400,500 -epsilon 1 -budget 2,1e-5 points.csv
//	onecluster -queries 300,400,500 -parallel -seed 1 points.csv
//
// Locally the handle builds one in-process index; data partitions exist
// only on shard servers.
//
// Remote mode: -remote routes the ball-index queries through shard
// servers (cmd/shardserver) over the wire protocol. Partitions are
// comma-separated; replicas of one partition are |-separated, so
// "a|b,c|d" is two partitions with two interchangeable replicas each
// (failover is automatic; see privcluster.Placement). Releases are
// bit-identical to local execution under the same seed regardless of
// which replica answers; combine with -queries/-parallel freely:
//
//	onecluster -t 400 -remote host1:7601,host2:7601 points.csv
//	onecluster -t 400 -remote 'host1:7601|host2:7601,host3:7601|host4:7601' points.csv
//	onecluster -queries 300,400 -placement placement.json points.csv
//
// -placement loads the same topology from a JSON placement file (the
// format cmd/shardctl generates), including the failover knobs that have
// no flag syntax.
//
// Daemon mode: -daemon queries a running privclusterd instead of local
// data — the server holds the points and a durable per-principal budget
// ledger; the client only sends the query and its API key. No CSV input
// is read; -dataset names the served dataset and -apikey authenticates:
//
//	onecluster -daemon http://host:7610 -apikey KEY -dataset points -t 400 -epsilon 2
//
// -trace runs the query under a trace and prints its span tree (stage
// names, durations, operation counts — never data values) after the
// release. Locally and with -remote the tree is collected client-side;
// the 128-bit trace ID also travels to every shard server, which
// announces it on its log, so one query can be followed across
// machines. In -daemon mode the server traces the query, returns the
// ID in the X-Trace-Id response header, and the tree is fetched back
// from GET /v1/trace/{id}:
//
//	onecluster -t 400 -trace points.csv
//	onecluster -daemon http://host:7610 -apikey KEY -dataset points -t 400 -trace
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"privcluster"
	"privcluster/internal/vec"
)

func main() {
	t := flag.Int("t", 0, "target cluster size (required unless -queries is set)")
	epsilon := flag.Float64("epsilon", 1, "privacy parameter ε (per query with -queries)")
	delta := flag.Float64("delta", 1e-6, "privacy parameter δ (per query with -queries)")
	beta := flag.Float64("beta", 0.1, "failure probability target")
	gridSize := flag.Int64("grid", 1<<16, "|X|: grid values per axis")
	seed := flag.Int64("seed", 0, "random seed (0 = from clock; with -queries, query i uses seed+i)")
	k := flag.Int("k", 1, "number of clusters to locate (k-cover when > 1)")
	queries := flag.String("queries", "", `comma-separated t values run against one Dataset handle (e.g. "300,400,500")`)
	budget := flag.String("budget", "", `total privacy budget "ε,δ" the handle may spend across -queries (empty = unlimited)`)
	parallel := flag.Bool("parallel", false, "with -queries: run the queries concurrently through the batch executor")
	remote := flag.String("remote", "", `shard-server placement: comma-separated partitions, |-separated replicas ("a:7601|b:7601,c:7601"); queries run over the wire protocol with automatic replica failover — releases are identical to local execution under the same seed`)
	placementFile := flag.String("placement", "", `JSON placement file (the cmd/shardctl format) describing the shard servers; mutually exclusive with -remote`)
	daemonURL := flag.String("daemon", "", `privclusterd base URL (e.g. "http://host:7610"): run the query against a served dataset instead of local data; requires -apikey and -dataset, reads no CSV`)
	apiKey := flag.String("apikey", "", "API key authenticating to -daemon")
	dataset := flag.String("dataset", "", "served dataset name to query in -daemon mode")
	trace := flag.Bool("trace", false, "trace the query and print its span tree (timings and operation counts only, never data values)")
	flag.Parse()

	if *queries == "" && *t <= 0 {
		fmt.Fprintln(os.Stderr, "onecluster: -t is required and must be positive")
		os.Exit(2)
	}
	if *queries != "" && *k > 1 {
		fmt.Fprintln(os.Stderr, "onecluster: -k cannot be combined with -queries (each query is a single-cluster release)")
		os.Exit(2)
	}
	if *trace && *parallel {
		fmt.Fprintln(os.Stderr, "onecluster: -trace cannot be combined with -parallel (concurrent queries would interleave one span tree)")
		os.Exit(2)
	}
	if *daemonURL != "" {
		if *queries != "" {
			fmt.Fprintln(os.Stderr, "onecluster: -queries is not supported in -daemon mode (issue the queries separately)")
			os.Exit(2)
		}
		if err := runDaemon(os.Stdout, *daemonURL, *apiKey, *dataset, *t, *k, *epsilon, *delta, *beta, *seed, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "onecluster:", err)
			os.Exit(1)
		}
		return
	}
	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "onecluster:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	points, err := vec.ReadCSV(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "onecluster:", err)
		os.Exit(1)
	}
	place, err := resolvePlacement(*remote, *placementFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "onecluster:", err)
		os.Exit(2)
	}

	if *queries != "" {
		if err := runQueries(os.Stdout, points, *queries, *budget, *epsilon, *delta, *beta, *gridSize, *seed, *parallel, place, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "onecluster:", err)
			os.Exit(1)
		}
		return
	}

	if err := runHandle(os.Stdout, points, *t, *k, *epsilon, *delta, *beta, *gridSize, *seed, place, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "onecluster:", err)
		os.Exit(1)
	}
}

// runDaemon issues the query against a running privclusterd and prints
// the released cluster(s) plus the caller's durable budget state. The
// client never sees the data, so no point counts are printed — only
// what the server released. With trace, the server-side span tree is
// fetched back from /v1/trace/{id} using the X-Trace-Id the query
// response carried.
func runDaemon(out io.Writer, base, key, dataset string, t, k int, epsilon, delta, beta float64, seed int64, trace bool) error {
	if dataset == "" {
		return fmt.Errorf("-daemon requires -dataset")
	}
	if key == "" {
		return fmt.Errorf("-daemon requires -apikey")
	}
	base = strings.TrimRight(base, "/")
	body := map[string]any{
		"dataset": dataset, "t": t,
		"epsilon": epsilon, "delta": delta, "beta": beta,
	}
	if seed != 0 {
		body["seed"] = seed
	}
	path := "/v1/query/cluster"
	if k > 1 {
		path = "/v1/query/kcover"
		body["k"] = k
	}
	var result struct {
		// cluster response
		Center    []float64 `json:"center"`
		Radius    float64   `json:"radius"`
		RawRadius float64   `json:"raw_radius"`
		// kcover response
		Clusters []struct {
			Center []float64 `json:"center"`
			Radius float64   `json:"radius"`
		} `json:"clusters"`
	}
	traceID, err := daemonCall(base+path, "POST", key, body, &result)
	if err != nil {
		return err
	}
	if k > 1 {
		for i, c := range result.Clusters {
			fmt.Fprintf(out, "cluster %d:\n", i+1)
			fmt.Fprintf(out, "  center: %v\n", formatPoint(c.Center))
			fmt.Fprintf(out, "  radius: %g\n", c.Radius)
		}
	} else {
		fmt.Fprintf(out, "  center: %v\n", formatPoint(result.Center))
		fmt.Fprintf(out, "  radius: %g (radius-stage estimate %g)\n", result.Radius, result.RawRadius)
	}
	if trace {
		if err := printServerTrace(out, base, traceID); err != nil {
			return err
		}
	}
	var budget struct {
		Spent     map[string]float64 `json:"spent"`
		Remaining map[string]float64 `json:"remaining"`
	}
	if _, err := daemonCall(base+"/v1/budget", "GET", key, nil, &budget); err != nil {
		return err
	}
	fmt.Fprintf(out, "budget: spent (ε=%g, δ=%g), remaining (ε=%g, δ=%g)\n",
		budget.Spent["epsilon"], budget.Spent["delta"],
		budget.Remaining["epsilon"], budget.Remaining["delta"])
	return nil
}

// printServerTrace fetches a retained span tree from /v1/trace/{id} and
// prints it in the same indented form QueryStats.Tree uses.
func printServerTrace(out io.Writer, base, id string) error {
	if id == "" {
		return fmt.Errorf("daemon response carried no X-Trace-Id header (server predates tracing?)")
	}
	var tr struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			Name       string           `json:"name"`
			Depth      int              `json:"depth"`
			DurationUS int64            `json:"duration_us"`
			Counters   map[string]int64 `json:"counters"`
		} `json:"spans"`
	}
	if _, err := daemonCall(base+"/v1/trace/"+id, "GET", "", nil, &tr); err != nil {
		return fmt.Errorf("fetching trace %s: %w", id, err)
	}
	fmt.Fprintf(out, "trace %s (server-side)\n", tr.TraceID)
	for _, s := range tr.Spans {
		fmt.Fprintf(out, "%s%-24s %12v", strings.Repeat("  ", s.Depth+1), s.Name,
			time.Duration(s.DurationUS)*time.Microsecond)
		keys := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "  %s=%d", k, s.Counters[k])
		}
		fmt.Fprintln(out)
	}
	return nil
}

// daemonCall is one authenticated JSON round trip to privclusterd,
// returning the response's X-Trace-Id header (if any); a non-2xx
// response is surfaced as its typed error envelope.
func daemonCall(url, method, key string, body, into any) (string, error) {
	var reader io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return "", err
		}
		reader = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		return "", err
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error.Code == "" {
			return traceID, fmt.Errorf("daemon returned HTTP %d", resp.StatusCode)
		}
		return traceID, fmt.Errorf("daemon refused (%s): %s", envelope.Error.Code, envelope.Error.Message)
	}
	return traceID, json.NewDecoder(resp.Body).Decode(into)
}

// resolvePlacement turns the -remote / -placement flags into the handle's
// Placement: nil when neither is set, the parsed file when -placement is,
// and the "a|b,c|d" partition syntax otherwise.
func resolvePlacement(remote, file string) (*privcluster.Placement, error) {
	if file != "" {
		if strings.TrimSpace(remote) != "" {
			return nil, fmt.Errorf("-remote and -placement are mutually exclusive")
		}
		return privcluster.LoadPlacement(file)
	}
	return parseRemote(remote)
}

// parseRemote parses the -remote flag: comma-separated partitions, each a
// |-separated replica set. nil for an empty flag.
func parseRemote(s string) (*privcluster.Placement, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	partitions := make([][]string, len(parts))
	for i, p := range parts {
		reps := strings.Split(p, "|")
		addrs := make([]string, len(reps))
		for j, r := range reps {
			addrs[j] = strings.TrimSpace(r)
			if addrs[j] == "" {
				return nil, fmt.Errorf("bad -remote %q: partition %d has an empty address", s, i+1)
			}
		}
		partitions[i] = addrs
	}
	return &privcluster.Placement{Partitions: partitions}, nil
}

// runHandle runs the single-shot query (-t, optionally -k) through a
// Dataset handle, with the shard-server placement (nil = local) and, with
// trace, the span tree hanging off the query context.
func runHandle(out io.Writer, points []privcluster.Point, t, k int, epsilon, delta, beta float64, gridSize, seed int64, place *privcluster.Placement, trace bool) error {
	ds, err := privcluster.Open(points, privcluster.DatasetOptions{GridSize: gridSize, Placement: place})
	if err != nil {
		return err
	}
	defer ds.Close()
	ctx := context.Background()
	q := privcluster.QueryOptions{Epsilon: epsilon, Delta: delta, Beta: beta, Seed: seed}
	var stats privcluster.QueryStats
	if trace {
		ctx = privcluster.WithTrace(ctx)
		q.Stats = &stats
	}
	if k <= 1 {
		c, err := ds.FindCluster(ctx, t, q)
		if err != nil {
			return err
		}
		printCluster(out, c, points)
	} else {
		cs, err := ds.FindClusters(ctx, k, t, q)
		if err != nil {
			return err
		}
		for i, c := range cs {
			fmt.Fprintf(out, "cluster %d:\n", i+1)
			printCluster(out, c, points)
		}
	}
	if trace {
		io.WriteString(out, stats.Tree())
	}
	return nil
}

// runQueries exercises the handle API end to end: one Open, then every t
// from the -queries list as a separate query under the (optional) total
// budget. Sequentially (the default), a budget refusal reports the
// accounting and stops; other per-query failures (e.g. an infeasible t)
// are reported and skipped, since the handle stays usable. With parallel
// set, the queries run concurrently through the batch executor instead —
// same releases under the same seeds, but when the budget cannot cover
// them all, which queries are refused depends on scheduling, so refusals
// are reported per query rather than stopping the run. A non-nil
// placement serves the ball index from those shard servers instead of
// local cores; releases are unchanged.
func runQueries(out io.Writer, points []privcluster.Point, queries, budget string, epsilon, delta, beta float64, gridSize, seed int64, parallel bool, place *privcluster.Placement, trace bool) error {
	ts, err := parseQueries(queries)
	if err != nil {
		return err
	}
	b, err := parseBudget(budget)
	if err != nil {
		return err
	}
	ds, err := privcluster.Open(points, privcluster.DatasetOptions{
		GridSize: gridSize, Budget: b, Placement: place,
	})
	if err != nil {
		return err
	}
	defer ds.Close()
	ctx := context.Background()
	qopts := make([]privcluster.QueryOptions, len(ts))
	for i := range ts {
		q := privcluster.QueryOptions{Epsilon: epsilon, Delta: delta, Beta: beta}
		if seed != 0 {
			q.Seed = seed + int64(i)
			// A derived seed that lands on 0 must stay literal, not become
			// the from-the-clock sentinel — the flag promises seed+i.
			q.ZeroSeed = q.Seed == 0
		}
		qopts[i] = q
	}
	if parallel {
		batch := make([]privcluster.Query, len(ts))
		for i, t := range ts {
			batch[i] = privcluster.Query{T: t, Opts: qopts[i]}
		}
		for i, res := range ds.FindClustersBatch(ctx, batch) {
			fmt.Fprintf(out, "query %d (t=%d, ε=%g, δ=%g):\n", i+1, ts[i], epsilon, delta)
			if res.Err != nil {
				fmt.Fprintf(out, "  failed: %v\n", res.Err)
				continue
			}
			printCluster(out, res.Clusters[0], points)
		}
	} else {
		for i, t := range ts {
			qctx := ctx
			var stats privcluster.QueryStats
			if trace {
				// Each sequential query gets its own trace so the printed
				// trees do not share an ID (or a span budget).
				qctx = privcluster.WithTrace(ctx)
				qopts[i].Stats = &stats
			}
			c, err := ds.FindCluster(qctx, t, qopts[i])
			fmt.Fprintf(out, "query %d (t=%d, ε=%g, δ=%g):\n", i+1, t, epsilon, delta)
			if err != nil {
				if errors.Is(err, privcluster.ErrBudgetExhausted) {
					return err
				}
				fmt.Fprintf(out, "  failed: %v\n", err)
				continue
			}
			printCluster(out, c, points)
			if trace {
				io.WriteString(out, stats.Tree())
			}
		}
	}
	spent := ds.Spent()
	if rem, ok := ds.Remaining(); ok {
		fmt.Fprintf(out, "budget: spent %v, remaining %v\n", spent, rem)
	} else {
		fmt.Fprintf(out, "budget: spent %v (no cap)\n", spent)
	}
	return nil
}

// parseQueries parses the -queries flag: a comma-separated list of positive
// t values.
func parseQueries(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ts := make([]int, 0, len(parts))
	for _, p := range parts {
		t, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -queries entry %q: %v", p, err)
		}
		if t <= 0 {
			return nil, fmt.Errorf("bad -queries entry %d: t must be positive", t)
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// parseBudget parses the -budget flag: empty for no budget, or "ε,δ".
func parseBudget(s string) (privcluster.Budget, error) {
	if s == "" {
		return privcluster.Budget{}, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return privcluster.Budget{}, fmt.Errorf(`bad -budget %q: want "ε,δ"`, s)
	}
	eps, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return privcluster.Budget{}, fmt.Errorf("bad -budget ε %q: %v", parts[0], err)
	}
	del, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return privcluster.Budget{}, fmt.Errorf("bad -budget δ %q: %v", parts[1], err)
	}
	return privcluster.Budget{Epsilon: eps, Delta: del}, nil
}

func printCluster(out io.Writer, c privcluster.Cluster, points []privcluster.Point) {
	fmt.Fprintf(out, "  center: %v\n", formatPoint(c.Center))
	fmt.Fprintf(out, "  radius: %g (radius-stage estimate %g)\n", c.Radius, c.RawRadius)
	fmt.Fprintf(out, "  points inside: %d of %d\n", c.Count(points), len(points))
}

func formatPoint(p privcluster.Point) string {
	parts := make([]string, len(p))
	for i, x := range p {
		parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
