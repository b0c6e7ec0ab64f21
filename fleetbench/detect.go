package main

import (
	"context"
	"runtime"
	"runtime/debug"
	"time"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/eval"
	"domainnet/internal/lake"
	"domainnet/internal/rank"
	"domainnet/internal/union"
)

// detectSamples and detectSampleSeed fix approximate betweenness, so a
// seed's precision@200 is the same on every op.
const (
	detectSamples    = 400
	detectSampleSeed = 1
	detectK          = 200
)

// detection is one run of the offline path: graph build, scoring and
// ranking.
type detection struct {
	ranking   []rank.Scored
	err       error
	wall, cpu time.Duration
	// layer holds the bipartite.*, centrality.* and rank.rank_ms figures;
	// nil when untraced.
	layer map[string]float64
}

// detect builds the graph of attrs, scores it under cfg and ranks it. With
// a tracer it also times each layer's call, records them as spans under req
// and reads the allocations of the build and the scoring; the reads of the
// allocation counters stay out of wall and cpu.
func detect(attrs []lake.Attribute, opts bipartite.Options, cfg domainnet.Config, tr *tracer, req string) detection {
	var d detection
	var m0, m1 runtime.MemStats
	if tr != nil {
		d.layer = map[string]float64{}
		runtime.ReadMemStats(&m0)
	}
	ctx := context.Background()
	t0, c0 := time.Now(), cpuTime()
	g := bipartite.FromAttributes(attrs, opts)
	t1, c1 := time.Now(), cpuTime()
	d.wall, d.cpu = t1.Sub(t0), c1-c0
	if tr != nil {
		runtime.ReadMemStats(&m1)
		tr.add(req, "bipartite.build", t0, t1)
		d.layer["bipartite.build_ms"] = ms(t1.Sub(t0))
		d.layer["bipartite.alloc_mb"] = mb(m1.TotalAlloc - m0.TotalAlloc)
		t1, c1 = time.Now(), cpuTime()
	}
	det := domainnet.FromGraph(g, cfg)
	_, d.err = det.ScoresContext(ctx)
	t2, c2 := time.Now(), cpuTime()
	d.wall, d.cpu = d.wall+t2.Sub(t1), d.cpu+c2-c1
	if tr != nil {
		runtime.ReadMemStats(&m0)
		tr.add(req, "centrality.score", t1, t2)
		d.layer["centrality.score_ms"] = ms(t2.Sub(t1))
		d.layer["centrality.alloc_mb"] = mb(m0.TotalAlloc - m1.TotalAlloc)
		d.layer["centrality.speedup"] = float64(c2-c1) / float64(t2.Sub(t1))
		t2, c2 = time.Now(), cpuTime()
	}
	if d.err == nil {
		d.ranking, d.err = det.RankingContext(ctx)
	}
	t3, c3 := time.Now(), cpuTime()
	d.wall, d.cpu = d.wall+t3.Sub(t2), d.cpu+c3-c2
	if tr != nil {
		tr.add(req, "rank.rank", t2, t3)
		d.layer["rank.rank_ms"] = ms(t3.Sub(t2))
	}
	return d
}

// detectSUT is the offline batch path of the paper's §5.3: the MediumTUS
// lake generated from the seed, detected from scratch on every op.
type detectSUT struct {
	gt    *union.GroundTruth
	truth map[string]bool
	// precision is the first op's precision@200; every later op must match.
	precision float64
	ops       int
}

// generatorGOGC is the collector's setting while the lake is generated.
// The generator's transient state outgrows everything the detection later
// holds, so generation sets the run's peak RSS. At the default setting
// that peak depended on when the collector happened to run: 28.9-35.1 MB
// on one seed's first set-up, and peak_rss_mb 36.3-38.8 MB on two runs of
// one seed. At 25 it read 33.2-34.8 MB on five runs over three seeds.
const generatorGOGC = 25

func startDetect(seed int64) (sut, map[string]float64, error) {
	t0 := time.Now()
	cfg := datagen.MediumTUS()
	cfg.Seed = seed
	old := debug.SetGCPercent(generatorGOGC)
	gt := datagen.TUS(cfg)
	debug.SetGCPercent(old)
	layer := map[string]float64{"datagen.lake_ms": ms(time.Since(t0))}
	return &detectSUT{gt: gt, truth: gt.HomographLabels(), precision: -1}, layer, nil
}

// measure runs detections back to back, one caller, until d has passed.
func (s *detectSUT) measure(d time.Duration, tr *tracer) *pass {
	p := newPass()
	var wall, cpu []float64
	layers := map[string][]float64{}
	cfg := domainnet.Config{
		Measure: domainnet.BetweennessApprox,
		Samples: detectSamples,
		Seed:    detectSampleSeed,
	}
	deadline := time.Now().Add(d)
	for len(wall) == 0 || time.Now().Before(deadline) {
		// Start every op from the same heap. Left to the pacer, the previous
		// op's garbage goes at a point that depends on timing, and
		// peak_rss_mb moved by 15% between runs of one seed.
		runtime.GC()
		p.attempted++
		r := detect(s.gt.Attrs, bipartite.Options{}, cfg, tr, itoa(int64(s.ops)))
		s.ops++
		for k, v := range r.layer {
			layers[k] = append(layers[k], v)
		}
		if r.err != nil {
			p.fail("detect_tus: %v", r.err)
			wall = append(wall, inf)
			continue
		}
		wall = append(wall, ms(r.wall))
		cpu = append(cpu, ms(r.cpu))
		got := eval.AtK(r.ranking, s.truth, detectK).Precision
		switch {
		case s.precision < 0:
			s.precision = got
		case got != s.precision:
			p.fail("detect_tus: precision@%d %.4f differs from the first op's %.4f", detectK, got, s.precision)
		}
	}
	describe("detect ms", wall)
	p.e2e["op_p50_ms"] = median(wall)
	p.e2e["op_cpu_ms"] = median(cpu)
	p.e2e["precision"] = s.precision
	for k, v := range layers {
		p.layer[k] = median(v)
	}
	if tr != nil {
		tr.count("detect.ops", float64(len(wall)))
	}
	return p
}

func (s *detectSUT) finish(p *pass, _ *tracer) {
	if s.precision <= 0 && s.ops > 0 {
		p.attempted++
		p.fail("detect_tus: precision@%d is %.4f; the detector finds no planted homographs", detectK, s.precision)
	}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
