// Command rpdbscan clusters a point file with RP-DBSCAN or one of the
// baseline parallel DBSCAN algorithms and writes per-point cluster labels.
//
// Usage:
//
//	rpdbscan -eps 0.5 -minpts 10 [flags] input.csv
//
// The input is CSV (one point per line, comma-separated coordinates;
// lines starting with '#' are skipped) or the binary format written by
// rpdatagen when -binary is set. Output (stdout or -o file) is one label
// per input line, -1 for noise. With -labeled, the original coordinates
// are echoed with the label appended as a last column.
//
// Flags:
//
//	-eps        DBSCAN radius (required)
//	-minpts     DBSCAN core threshold (required)
//	-rho        approximation rate (default 0.01)
//	-algo       rp|esp|rbp|cbp|spark|ng|exact (default rp)
//	-backend    sim|proc (default sim). proc runs Phase I/II on worker
//	            subprocesses over local sockets (algo rp only); output is
//	            byte-identical to sim
//	-partitions number of splits (default workers)
//	-workers    parallel workers; with -backend=proc, worker processes
//	            (default GOMAXPROCS)
//	-binary       input is rpdatagen binary format
//	-stream       ingest the input out-of-core in bounded chunks (algo rp
//	              only; incompatible with -labeled and -save-model, which
//	              need the full coordinates in memory). Labels are
//	              identical to the in-memory run.
//	-chunk-size   points per streamed chunk (default 65536)
//	-labeled      echo coordinates with the label appended
//	-o            output path (default stdout)
//	-save-model   write the fitted model artifact here (serve it with rpserve)
//	-stats        print phase timings and dictionary stats to stderr
//	-stats-json   write run statistics as JSON to this path ("-" for stderr)
//	-trace        write the engine trace to this path
//	-trace-format report (engine JSON) or chrome (chrome://tracing timeline)
//	-log-level    debug|info|warn|error structured log level (stderr)
//	-log-format   text|json structured log encoding
//	-debug-addr   serve /metrics, /healthz, /debug/pprof, /debug/vars on
//	              this address
//
// Chaos flags (deterministic fault injection; results must be identical):
//
//	-chaos-fail      probability of failing a task attempt
//	-chaos-straggler probability of inflating a task into a straggler
//	-chaos-corrupt   probability of corrupting a payload chunk in transit
//	-chaos-kill      probability of SIGKILLing the worker process about to
//	                 serve a task attempt (-backend=proc only)
//	-chaos-delay     virtual straggler inflation (default 20ms)
//	-chaos-seed      seed for the injected fault schedule
package main

import (
	"bufio"
	"flag"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strconv"

	"rpdbscan/internal/baselines/cbp"
	"rpdbscan/internal/baselines/esp"
	"rpdbscan/internal/baselines/ngdbscan"
	"rpdbscan/internal/baselines/rbp"
	"rpdbscan/internal/baselines/regionsplit"
	"rpdbscan/internal/chaos"
	"rpdbscan/internal/core"
	"rpdbscan/internal/dbscan"
	"rpdbscan/internal/engine"
	"rpdbscan/internal/geom"
	"rpdbscan/internal/obs"
	"rpdbscan/internal/pointio"
	"rpdbscan/internal/serve"
	"rpdbscan/internal/transport"
)

// fatal logs the error through the structured logger and exits.
func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "err", err)
	os.Exit(1)
}

func main() {
	// A process spawned with the worker environment marker set never comes
	// back from this call: it serves tasks until the driver's pipe closes.
	transport.MaybeWorker()
	eps := flag.Float64("eps", 0, "DBSCAN radius (required)")
	minPts := flag.Int("minpts", 0, "DBSCAN core threshold (required)")
	rho := flag.Float64("rho", 0.01, "approximation rate")
	algo := flag.String("algo", "rp", "algorithm: rp|esp|rbp|cbp|spark|ng|exact")
	backend := flag.String("backend", "sim", "execution backend: sim|proc (algo rp only)")
	workerMode := flag.Bool("worker", false, "run as a transport worker process (spawned internally by -backend=proc)")
	partitions := flag.Int("partitions", 0, "number of splits (default workers)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
	binary := flag.Bool("binary", false, "input is binary point format")
	stream := flag.Bool("stream", false, "ingest the input out-of-core in bounded chunks (algo rp only)")
	chunkSize := flag.Int("chunk-size", 0, "points per streamed chunk (default 65536)")
	labeled := flag.Bool("labeled", false, "echo coordinates with label appended")
	out := flag.String("o", "", "output path (default stdout)")
	saveModel := flag.String("save-model", "", "write the fitted model artifact here (algo rp or exact)")
	stats := flag.Bool("stats", false, "print run statistics to stderr")
	statsJSON := flag.String("stats-json", "", `write run statistics as JSON to this path ("-" for stderr)`)
	trace := flag.String("trace", "", "write the engine trace to this path")
	traceFormat := flag.String("trace-format", "report", "trace encoding: "+obs.TraceFormats)
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/pprof and /debug/vars on this address")
	seed := flag.Int64("seed", 1, "partitioning seed")
	chaosFail := flag.Float64("chaos-fail", 0, "chaos: probability of failing a task attempt")
	chaosStraggler := flag.Float64("chaos-straggler", 0, "chaos: probability of inflating a task into a straggler")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "chaos: probability of corrupting a payload chunk")
	chaosKill := flag.Float64("chaos-kill", 0, "chaos: probability of SIGKILLing a worker process per task attempt (-backend=proc)")
	chaosDelay := flag.Duration("chaos-delay", 0, "chaos: virtual straggler inflation (default 20ms)")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos: fault-schedule seed")
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	log, err := logCfg.Setup(os.Stderr)
	if err != nil {
		slog.Error("rpdbscan", "err", err)
		os.Exit(2)
	}
	log = log.With("cmd", "rpdbscan")
	if *workerMode {
		// Manual worker mode (the subprocess spawner uses the environment
		// marker instead): serve until stdin closes.
		transport.RunWorker(os.Stdin, os.Stdout)
		return
	}
	if *eps <= 0 || *minPts < 1 || flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	switch *backend {
	case "sim", "":
	case "proc":
		if *algo != "rp" {
			log.Error("-backend=proc supports only -algo rp", "algo", *algo)
			os.Exit(2)
		}
	default:
		log.Error("unknown backend", "backend", *backend)
		os.Exit(2)
	}
	if *debugAddr != "" {
		if _, err := obs.StartDebugServer(*debugAddr, log); err != nil {
			fatal(log, "debug server", err)
		}
	}
	if *stream {
		// Streaming never materialises the input, so anything needing the
		// full coordinate set in memory is off the table.
		switch {
		case *algo != "rp":
			log.Error("-stream supports only -algo rp", "algo", *algo)
			os.Exit(2)
		case *labeled:
			log.Error("-stream is incompatible with -labeled (coordinates are not kept in memory)")
			os.Exit(2)
		case *saveModel != "":
			log.Error("-stream is incompatible with -save-model (coordinates are not kept in memory)")
			os.Exit(2)
		}
	}
	var pts *geom.Points
	if !*stream {
		pts, err = readInput(flag.Arg(0), *binary)
		if err != nil {
			fatal(log, "read input", err)
		}
	}

	k := *partitions
	if k == 0 {
		k = *workers
	}
	cl := engine.New(*workers)
	cl.Sink = obs.NewSink(log)
	var inj *chaos.Injector
	if *chaosFail > 0 || *chaosStraggler > 0 || *chaosCorrupt > 0 || *chaosKill > 0 {
		if *chaosKill > 0 && *backend != "proc" {
			log.Error("-chaos-kill needs -backend=proc (there is no worker process to kill)")
			os.Exit(2)
		}
		inj, err = chaos.New(chaos.Config{
			Seed: *chaosSeed, FailProb: *chaosFail, StragglerProb: *chaosStraggler,
			CorruptProb: *chaosCorrupt, KillProb: *chaosKill, StragglerDelay: *chaosDelay,
		})
		if err != nil {
			fatal(log, "chaos config", err)
		}
		cl.Injector = inj
		log.Info("chaos enabled", "seed", *chaosSeed, "fail", *chaosFail,
			"straggler", *chaosStraggler, "corrupt", *chaosCorrupt, "kill", *chaosKill)
	}
	if *backend == "proc" {
		opts := transport.Options{}
		if inj != nil {
			opts.Injector = inj
			opts.Killer = inj
		}
		tr, err := transport.NewProc(*workers, opts)
		if err != nil {
			fatal(log, "start workers", err)
		}
		defer tr.Close()
		tr.Bind(cl)
		log.Info("proc backend up", "workers", *workers)
	}
	var labels []int
	var clusters int
	var corePoints []bool // set by algorithms that judge core points
	var runInfo obs.RunInfo
	switch *algo {
	case "rp":
		cfg := core.Config{
			Eps: *eps, MinPts: *minPts, Rho: *rho,
			NumPartitions: k, Seed: *seed,
		}
		var res *core.Result
		if *stream {
			res, err = runStreamed(flag.Arg(0), *binary, core.StreamConfig{
				Config: cfg, ChunkSize: *chunkSize,
			}, cl)
			if err != nil {
				fatal(log, "clustering", err)
			}
			runInfo = obs.RunInfo{
				Points:       res.PointsProcessed,
				Streamed:     true,
				Chunks:       res.Stream.Chunks,
				SpillBytes:   res.Stream.SpillBytes,
				SpillReloads: res.Stream.SpillReloads,
			}
		} else {
			res, err = core.Run(pts, cfg, cl)
			if err != nil {
				fatal(log, "clustering", err)
			}
			runInfo = obs.RunInfo{Points: int64(pts.N())}
		}
		labels, clusters = res.Labels, res.NumClusters
		corePoints = res.CorePoint
		runInfo.Algorithm = "rp"
		runInfo.Clusters = res.NumClusters
		runInfo.Cells = res.NumCells
		runInfo.SubCells = res.NumSubCells
		runInfo.DictBytes = res.DictBytes
		obs.CountRun(cl.Report(), runInfo)
	case "esp", "rbp", "cbp", "spark":
		cfg := regionsplit.Config{
			Eps: *eps, MinPts: *minPts, Rho: *rho,
			NumRegions: k, ExactLocal: *algo == "spark",
		}
		var res *regionsplit.Result
		switch *algo {
		case "esp":
			res = esp.Run(pts, cfg, cl)
		case "rbp":
			res = rbp.Run(pts, cfg, cl)
		default:
			res = cbp.Run(pts, cfg, cl)
		}
		labels, clusters = res.Labels, res.NumClusters
	case "ng":
		res := ngdbscan.Run(pts, ngdbscan.Config{Eps: *eps, MinPts: *minPts, Seed: *seed}, cl)
		labels, clusters = res.Labels, res.NumClusters
	case "exact":
		res := dbscan.Run(pts, *eps, *minPts)
		labels, clusters = res.Labels, res.NumClusters
		corePoints = res.CorePoint
	default:
		log.Error("unknown algorithm", "algo", *algo)
		os.Exit(1)
	}

	if *algo != "rp" {
		// Baselines report no dictionary; counters and run facts are the
		// input size and cluster count.
		obs.Counters.PointsRead.Add(int64(pts.N()))
		runInfo = obs.RunInfo{Algorithm: *algo, Points: int64(pts.N()), Clusters: clusters}
	}
	// One snapshot backs every stats surface: the -stats table, the
	// run-complete log line, -stats-json, and the /metrics gauges.
	snap := obs.TakeSnapshot(cl.Report(), runInfo)
	snap.Publish()
	if *stats {
		log.Info("run complete", snap.LogArgs()...)
		os.Stderr.WriteString(snap.String())
	}
	if *statsJSON != "" {
		w := io.Writer(os.Stderr)
		if *statsJSON != "-" {
			f, err := os.Create(*statsJSON)
			if err != nil {
				fatal(log, "create stats file", err)
			}
			defer f.Close()
			w = f
		}
		if err := snap.WriteJSON(w); err != nil {
			fatal(log, "write stats json", err)
		}
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(log, "create trace file", err)
		}
		if err := obs.WriteTrace(f, cl.Report(), *traceFormat); err != nil {
			fatal(log, "write trace", err)
		}
		if err := f.Close(); err != nil {
			fatal(log, "close trace file", err)
		}
		log.Info("wrote trace", "path", *trace, "format", *traceFormat)
	}
	if *saveModel != "" {
		if corePoints == nil {
			log.Error("save-model requires an algorithm that reports core points", "algo", *algo, "want", "rp or exact")
			os.Exit(1)
		}
		m, err := serve.New(pts.Coords, pts.Dim, labels, corePoints, *eps, *minPts, *rho, clusters)
		if err != nil {
			fatal(log, "build model", err)
		}
		f, err := os.Create(*saveModel)
		if err != nil {
			fatal(log, "create model file", err)
		}
		if err := m.Save(f); err != nil {
			fatal(log, "save model", err)
		}
		if err := f.Close(); err != nil {
			fatal(log, "close model file", err)
		}
		info := m.Info()
		log.Info("wrote model", "path", *saveModel, "bytes", info.ArtifactBytes,
			"core_points", info.CorePoints, "checksum", info.Checksum)
	}
	if err := writeOutput(*out, pts, labels, *labeled); err != nil {
		fatal(log, "write output", err)
	}
}

// runStreamed clusters the input file out-of-core: the file is read once
// in bounded chunks, and the pipeline spills to temp files instead of
// holding the points.
func runStreamed(path string, binary bool, cfg core.StreamConfig, cl *engine.Cluster) (*core.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var src pointio.Source
	if binary {
		src, err = pointio.NewBinaryChunkReader(f)
	} else {
		src, err = pointio.NewCSVChunkReader(f)
	}
	if err != nil {
		return nil, err
	}
	return core.RunStream(src, cfg, cl)
}

func readInput(path string, binary bool) (*geom.Points, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if binary {
		return pointio.ReadBinary(f)
	}
	return pointio.ReadCSV(f)
}

func writeOutput(path string, pts *geom.Points, labels []int, labeled bool) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	for i, l := range labels {
		if labeled {
			row := pts.At(i)
			for _, v := range row {
				bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
				bw.WriteByte(',')
			}
		}
		bw.WriteString(strconv.Itoa(l))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
