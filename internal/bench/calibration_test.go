package bench

// The tests in this file are the reproduction's executable claims:
// each asserts that a regenerated table or figure falls inside the
// band the paper reports. Bands are deliberately generous (the
// substrate is a calibrated simulator, not the authors' silicon) but
// tight enough that the paper's qualitative story — who wins, by what
// factor, where the knees fall — cannot regress silently.

import (
	"sync"
	"testing"

	"simtmp/internal/arch"
)

// The sweeps are deterministic, so tests share one result set instead
// of regenerating per test (the full Figure 5 sweep alone costs
// seconds of host time).
var (
	fig4Once sync.Once
	fig4Pts  []Fig4Point
	fig5Once sync.Once
	fig5Pts  []Fig5Point
	fig6Once sync.Once
	fig6Pts  []Fig6bPoint
	cpuOnce  sync.Once
	cpuRows  []CPURow
)

func figure4Cached() []Fig4Point {
	fig4Once.Do(func() { fig4Pts = Figure4() })
	return fig4Pts
}

func figure5Cached() []Fig5Point {
	fig5Once.Do(func() { fig5Pts = Figure5() })
	return fig5Pts
}

func figure6bCached() []Fig6bPoint {
	fig6Once.Do(func() { fig6Pts = Figure6b() })
	return fig6Pts
}

func cpuCached() []CPURow {
	cpuOnce.Do(func() { cpuRows = CPUReference() })
	return cpuRows
}

func fig4At(pts []Fig4Point, archName string, n int) float64 {
	for _, p := range pts {
		if p.Arch == archName && p.QueueLen == n {
			return p.RateM
		}
	}
	return -1
}

func TestFigure4Bands(t *testing.T) {
	pts := figure4Cached()
	// Paper: ≈3M (Kepler), ≈3.5M (Maxwell), ≈6M (Pascal) at the
	// 256..1024 plateau.
	bands := map[string][2]float64{
		"Kepler":  {2.0, 4.2},
		"Maxwell": {2.6, 5.2},
		"Pascal":  {4.5, 8.0},
	}
	for name, band := range bands {
		for _, n := range []int{256, 512, 1024} {
			r := fig4At(pts, name, n)
			if r < band[0] || r > band[1] {
				t.Errorf("%s @%d = %.2fM, want within [%.1f, %.1f]M", name, n, r, band[0], band[1])
			}
		}
	}
}

func TestFigure4GenerationOrdering(t *testing.T) {
	pts := figure4Cached()
	for _, n := range []int{64, 256, 1024} {
		k, m, p := fig4At(pts, "Kepler", n), fig4At(pts, "Maxwell", n), fig4At(pts, "Pascal", n)
		if !(k < m && m < p) {
			t.Errorf("@%d: Kepler %.2f, Maxwell %.2f, Pascal %.2f — want strictly increasing", n, k, m, p)
		}
	}
}

func TestFigure4KneeAt1024(t *testing.T) {
	// "At a queue length of 1024, the performance drops because all
	// warps are required ... and the reduce phase cannot be overlapped
	// anymore."
	pts := figure4Cached()
	for _, a := range []string{"Kepler", "Maxwell", "Pascal"} {
		r512, r1024 := fig4At(pts, a, 512), fig4At(pts, a, 1024)
		if r1024 >= r512 {
			t.Errorf("%s: no knee at 1024 (%.2fM vs %.2fM at 512)", a, r1024, r512)
		}
		// Beyond 1024: multiple iterations, "performance drops
		// accordingly".
		r2048 := fig4At(pts, a, 2048)
		if r2048 >= r1024 {
			t.Errorf("%s: rate did not drop past 1024 (%.2fM vs %.2fM)", a, r2048, r1024)
		}
	}
}

func TestFigure4FlatPlateau(t *testing.T) {
	// The figure is roughly flat from 16 to 1024: no point on the
	// plateau may deviate more than 2.2x from another.
	pts := figure4Cached()
	for _, a := range []string{"Kepler", "Maxwell", "Pascal"} {
		min, max := 1e18, 0.0
		for _, n := range []int{16, 64, 256, 1024} {
			r := fig4At(pts, a, n)
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		if max/min > 2.2 {
			t.Errorf("%s plateau not flat: min %.2fM max %.2fM", a, min, max)
		}
	}
}

func fig5Best(pts []Fig5Point, q int) float64 {
	best := 0.0
	for _, p := range pts {
		if p.Queues == q && p.RateM > best {
			best = p.RateM
		}
	}
	return best
}

func TestFigure5ScalingShape(t *testing.T) {
	pts := figure5Cached()
	r1, r2, r4 := fig5Best(pts, 1), fig5Best(pts, 2), fig5Best(pts, 4)
	// "performance scales almost linearly for up to four queues".
	if s := r2 / r1; s < 1.6 || s > 2.6 {
		t.Errorf("2-queue speedup = %.2fx, want ≈2x", s)
	}
	if s := r4 / r1; s < 3.0 || s > 4.8 {
		t.Errorf("4-queue speedup = %.2fx, want ≈4x", s)
	}
	// "afterwards it is just below linear".
	r16, r32 := fig5Best(pts, 16), fig5Best(pts, 32)
	if s := r16 / r1; s >= 16 {
		t.Errorf("16-queue speedup = %.2fx, want sublinear", s)
	}
	if r32 < r16*0.8 {
		t.Errorf("32 queues (%.1fM) collapsed versus 16 (%.1fM)", r32, r16)
	}
}

func TestFigure5PeakBand(t *testing.T) {
	// Table II: partitioned matrix tops out just below ~60M on Pascal.
	pts := figure5Cached()
	best := 0.0
	for _, p := range pts {
		if p.RateM > best {
			best = p.RateM
		}
	}
	if best < 40 || best > 80 {
		t.Errorf("partitioned peak = %.1fM, want ≈60M (band [40,80])", best)
	}
}

func TestFigure5CTASerialization(t *testing.T) {
	// More CTAs allow longer queues but serialize beyond the 2-CTA
	// occupancy: rate at 8192 (8 CTAs) must be well below 2048 (2
	// CTAs) for the same queue count.
	pts := figure5Cached()
	at := func(q, n int) float64 {
		for _, p := range pts {
			if p.Queues == q && p.TotalLen == n {
				return p.RateM
			}
		}
		return -1
	}
	for _, q := range []int{1, 8, 32} {
		if r8k, r2k := at(q, 8192), at(q, 2048); r8k >= r2k {
			t.Errorf("q=%d: no CTA serialization penalty (8192: %.1fM >= 2048: %.1fM)", q, r8k, r2k)
		}
	}
}

func TestFigure5CrossArchSpeedups(t *testing.T) {
	// Paper: GTX1080 averages 2.12x over the K80 and 1.56x over the
	// M40 in this experiment.
	overK, overM := Figure5Speedups()
	if overK < 1.6 || overK > 2.7 {
		t.Errorf("Pascal/Kepler = %.2fx, want ≈2.12x", overK)
	}
	if overM < 1.2 || overM > 2.0 {
		t.Errorf("Pascal/Maxwell = %.2fx, want ≈1.56x", overM)
	}
}

func fig6bAt(pts []Fig6bPoint, archName string, elems, ctas int) float64 {
	for _, p := range pts {
		if p.Arch == archName && p.Elements == elems && p.CTAs == ctas {
			return p.RateM
		}
	}
	return -1
}

func TestFigure6bBands(t *testing.T) {
	pts := figure6bCached()
	// Paper: Kepler 110M (1 CTA @1024), Pascal ≈500M.
	if r := fig6bAt(pts, "Kepler", 1024, 1); r < 80 || r > 150 {
		t.Errorf("Kepler 1-CTA @1024 = %.1fM, want ≈110M", r)
	}
	if r := fig6bAt(pts, "Pascal", 1024, 32); r < 380 || r > 650 {
		t.Errorf("Pascal 32-CTA @1024 = %.1fM, want ≈500M", r)
	}
	// Cross-generation: Pascal well above Maxwell above Kepler.
	k := fig6bAt(pts, "Kepler", 1024, 32)
	m := fig6bAt(pts, "Maxwell", 1024, 32)
	p := fig6bAt(pts, "Pascal", 1024, 32)
	if !(k < m && m < p) {
		t.Errorf("hash rates not ordered: K=%.0f M=%.0f P=%.0f", k, m, p)
	}
	if ratio := p / k; ratio < 2.5 || ratio > 6.5 {
		t.Errorf("Pascal/Kepler hash ratio = %.1fx, paper reports 3.3x (500/150)", ratio)
	}
}

func TestFigure6bMultiCTADirection(t *testing.T) {
	// Paper: on Kepler, 32 CTAs (150M) beat 1 CTA (110M). Our model
	// reproduces the direction within tolerance: 32 CTAs must be at
	// least on par (≥95%).
	pts := figure6bCached()
	for _, a := range []string{"Kepler", "Maxwell", "Pascal"} {
		one, many := fig6bAt(pts, a, 1024, 1), fig6bAt(pts, a, 1024, 32)
		if many < 0.95*one {
			t.Errorf("%s: 32 CTAs (%.0fM) fell below 1 CTA (%.0fM)", a, many, one)
		}
	}
}

func TestTableIIStory(t *testing.T) {
	rows := TableII()
	if len(rows) != 6 {
		t.Fatalf("TableII has %d rows, want 6", len(rows))
	}
	fullMPI, noUnexp := rows[0].RateM, rows[1].RateM
	partUnexp, part := rows[2].RateM, rows[3].RateM
	hashUnexp, hash := rows[4].RateM, rows[5].RateM

	// Within each pair, forbidding unexpected messages must not hurt.
	if fullMPI > noUnexp {
		t.Errorf("full MPI (%.1fM) faster than no-unexpected (%.1fM)", fullMPI, noUnexp)
	}
	if partUnexp > part {
		t.Errorf("partitioned+unexpected (%.1fM) faster than without (%.1fM)", partUnexp, part)
	}
	if hashUnexp > hash {
		t.Errorf("hash+unexpected (%.1fM) faster than without (%.1fM)", hashUnexp, hash)
	}

	// Headline factors: ~6M / ~60M / ~500M — 10x and 80x speedups.
	if noUnexp < 4.5 || noUnexp > 8 {
		t.Errorf("matrix rate = %.1fM, want ≈6M", noUnexp)
	}
	if part < 40 || part > 80 {
		t.Errorf("partitioned rate = %.1fM, want ≈60M", part)
	}
	if hash < 380 || hash > 650 {
		t.Errorf("hash rate = %.1fM, want ≈500M", hash)
	}
	if s := part / noUnexp; s < 7 || s > 14 {
		t.Errorf("partitioning speedup = %.1fx, paper reports 10x", s)
	}
	if s := hash / noUnexp; s < 55 || s > 110 {
		t.Errorf("ordering-relaxation speedup = %.1fx, paper reports 80x", s)
	}
}

func TestAblationCompactionBand(t *testing.T) {
	rows := AblationCompaction()
	for _, r := range rows {
		if r.OverheadPct < 2 || r.OverheadPct > 25 {
			t.Errorf("@%d: compaction overhead %.1f%%, paper reports ≈10%%", r.QueueLen, r.OverheadPct)
		}
	}
}

func TestAblationMatchFractionLinear(t *testing.T) {
	rows := AblationMatchFraction()
	for _, r := range rows {
		if r.Fraction == 0.5 {
			// Paper: 50% matched → about 50% of the rate.
			if r.RelToFull < 0.35 || r.RelToFull > 0.75 {
				t.Errorf("rate at 50%% matched = %.2f of full, want ≈0.5", r.RelToFull)
			}
		}
	}
}

func TestOrderSensitivityDirection(t *testing.T) {
	rows := OrderSensitivity()
	for _, r := range rows {
		if r.Slowdown < 1.02 {
			t.Errorf("@%d: reversed queue not slower (%.2fx)", r.QueueLen, r.Slowdown)
		}
		if r.Slowdown > 5 {
			t.Errorf("@%d: reversed slowdown %.2fx implausibly large", r.QueueLen, r.Slowdown)
		}
	}
}

func TestHashAblationAllCorrectAndComparable(t *testing.T) {
	rows := HashAblation()
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	var jenkins float64
	for _, r := range rows {
		if r.RateM <= 0 || r.DupRateM <= 0 {
			t.Errorf("%s/%s: zero rate", r.HashName, r.Policy)
		}
		if r.HashName == "jenkins" && r.Policy == "two-level" {
			jenkins = r.RateM
		}
	}
	for _, r := range rows {
		if r.RateM < jenkins/4 {
			t.Errorf("%s/%s: %.0fM is far below jenkins/two-level %.0fM", r.HashName, r.Policy, r.RateM, jenkins)
		}
	}
}

func TestCPUReferenceCollapse(t *testing.T) {
	rows := cpuCached()
	at := func(n int) float64 {
		for _, r := range rows {
			if r.QueueLen == n {
				return r.RateM
			}
		}
		return -1
	}
	// §II-C: ~30M matches/s with short queues, below 5M past 512 — the
	// absolute numbers are host-dependent; the collapse is not.
	if short, long := at(16), at(2048); short < 3*long {
		t.Errorf("no list-matcher collapse: %.1fM @16 vs %.1fM @2048", short, long)
	}
}

func TestTableIHeadlines(t *testing.T) {
	rows := TableI(1)
	if len(rows) != 10 {
		t.Fatalf("Table I has %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r.TagWild {
			t.Errorf("%s uses the tag wildcard; the paper found none", r.App)
		}
		wantSrc := r.App == "MiniDFT" || r.App == "MiniFE"
		if r.SrcWild != wantSrc {
			t.Errorf("%s src wildcard = %v, want %v", r.App, r.SrcWild, wantSrc)
		}
		if r.TagBits > 16 {
			t.Errorf("%s needs %d tag bits, paper: ≤16", r.App, r.TagBits)
		}
	}
}

func TestFigure2Headlines(t *testing.T) {
	rows := Figure2(1)
	for _, r := range rows {
		switch r.App {
		case "Nekbone":
			if r.UMQ.Mean < 2800 || r.UMQ.Mean > 5200 {
				t.Errorf("Nekbone UMQ mean = %.0f, want ≈4000", r.UMQ.Mean)
			}
		case "MultiGrid":
			if r.UMQ.Mean < 1400 || r.UMQ.Mean > 2600 {
				t.Errorf("MultiGrid UMQ mean = %.0f, want ≈2000", r.UMQ.Mean)
			}
		default:
			if r.UMQ.Max >= 512 {
				t.Errorf("%s UMQ max = %.0f, want <512", r.App, r.UMQ.Max)
			}
		}
	}
}

func TestFigure6aHeadline(t *testing.T) {
	rows := Figure6a(1)
	single := 0
	for _, r := range rows {
		if r.MeanSharePct < 10 {
			single++
		}
	}
	// "most applications range in single digit percentages".
	if single < 6 {
		t.Errorf("only %d/10 apps have single-digit tuple shares", single)
	}
}

func TestFigure5OnAllArchesRuns(t *testing.T) {
	for _, a := range arch.All() {
		pts := figure5On(a, 0)
		if len(pts) == 0 {
			t.Errorf("%s: empty sweep", a.Name)
		}
		for _, p := range pts {
			if p.RateM <= 0 {
				t.Errorf("%s q=%d n=%d: zero rate", a.Name, p.Queues, p.TotalLen)
			}
		}
	}
}

func TestAblationWildcardHashCollapse(t *testing.T) {
	rows := AblationWildcardHash()
	if rows[0].RelToNone != 1 {
		t.Fatalf("baseline not normalized: %+v", rows[0])
	}
	// Even 5% wildcards must visibly hurt; 25% must collapse the rate.
	for _, r := range rows {
		switch r.WildcardPct {
		case 5:
			if r.RelToNone > 0.9 {
				t.Errorf("5%% wildcards: rate %.2f of baseline, want <0.9", r.RelToNone)
			}
		case 25:
			if r.RelToNone > 0.5 {
				t.Errorf("25%% wildcards: rate %.2f of baseline, want <0.5", r.RelToNone)
			}
		}
	}
}

func TestApplicabilityMatrix(t *testing.T) {
	rows := Applicability(1)
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r.MatrixRateM <= 0 {
			t.Errorf("%s: matrix engine failed", r.App)
		}
		// §VI-A: prohibiting the source wildcard is infeasible exactly
		// for the two wildcard-using applications.
		wantPart := r.App != "MiniDFT" && r.App != "MiniFE"
		if r.PartitionedOK != wantPart {
			t.Errorf("%s: partitioned feasible = %v, want %v", r.App, r.PartitionedOK, wantPart)
		}
		if r.PartitionedOK && r.PartitionedRateM <= r.MatrixRateM*0.8 {
			t.Errorf("%s: partitioning did not pay off (%.1fM vs %.1fM)",
				r.App, r.PartitionedRateM, r.MatrixRateM)
		}
		if r.HashOK && r.HashRateM <= r.PartitionedRateM {
			t.Errorf("%s: hash feasible but slower than partitioned (%.1fM vs %.1fM)",
				r.App, r.HashRateM, r.PartitionedRateM)
		}
		if r.BestSpeedup < 1 {
			t.Errorf("%s: best speedup %.2f < 1", r.App, r.BestSpeedup)
		}
	}
}

func TestStreamingDynamics(t *testing.T) {
	rows := Streaming()
	at := func(engine string, offered float64) StreamRow {
		for _, r := range rows {
			if r.Engine == engine && r.OfferedM == offered {
				return r
			}
		}
		t.Fatalf("missing row %s@%v", engine, offered)
		return StreamRow{}
	}
	// Matrix: stable under its ~6M capacity, death-spirals above (the
	// queue-depth degradation of Figure 4 feeding back on itself).
	if r := at("matrix", 2); !r.Stable {
		t.Errorf("matrix unstable at 2M offered: %+v", r)
	}
	if r := at("matrix", 10); r.Stable {
		t.Errorf("matrix stable at 10M offered: %+v", r)
	}
	// Under overload, delivered rate must fall BELOW the stable-load
	// capacity — the signature of the spiral.
	if over, stable := at("matrix", 10), at("matrix", 5); over.DeliveredM >= stable.DeliveredM {
		t.Errorf("matrix overload did not degrade: %.1fM >= %.1fM", over.DeliveredM, stable.DeliveredM)
	}
	// Hash sustains near the offered rate across the sweep.
	for _, offered := range []float64{100, 400, 900} {
		r := at("hash", offered)
		if !r.Stable || r.DeliveredM < 0.9*offered {
			t.Errorf("hash at %vM: delivered %.1fM stable=%v", offered, r.DeliveredM, r.Stable)
		}
	}
	// Ordering of sustained capacity: matrix < partitioned < hash.
	if !(at("matrix", 5).DeliveredM < at("partitioned", 40).DeliveredM &&
		at("partitioned", 40).DeliveredM < at("hash", 400).DeliveredM) {
		t.Error("sustained capacities not ordered matrix < partitioned < hash")
	}
}

func TestMessageSizeSweep(t *testing.T) {
	rows := MessageSizes()
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	var lastBW float64
	for _, r := range rows {
		wantMode := "eager"
		if r.Bytes > 8*1024 {
			wantMode = "rendezvous"
		}
		if r.Mode != wantMode {
			t.Errorf("%dB: mode %s, want %s", r.Bytes, r.Mode, wantMode)
		}
		if r.EffectiveGBs < lastBW*0.5 {
			t.Errorf("%dB: effective bandwidth %.2f collapsed from %.2f", r.Bytes, r.EffectiveGBs, lastBW)
		}
		lastBW = r.EffectiveGBs
	}
	// Large transfers must approach the NVLink line rate.
	final := rows[len(rows)-1]
	if final.EffectiveGBs < 10 || final.EffectiveGBs > 20 {
		t.Errorf("1MB effective bandwidth = %.1f GB/s, want near the 20 GB/s link", final.EffectiveGBs)
	}
	// Tiny transfers are latency-bound: microseconds per message, far
	// from line rate.
	if rows[0].EffectiveGBs > 1 {
		t.Errorf("8B effective bandwidth = %.3f GB/s, want latency-bound <1", rows[0].EffectiveGBs)
	}
}

func TestSMSweepLinearScaling(t *testing.T) {
	rows := SMSweep()
	prev := map[string]float64{}
	for _, r := range rows {
		// 8 CTAs over occupancy 2: 4 waves on 1 SM, 1 wave on 4+ SMs.
		// Matrix scales near-linearly; the partitioned engine scales
		// sublinearly because ordered-priority processing skews CTA
		// cost toward later message blocks (the wave max dominates).
		switch {
		case r.Engine == "matrix" && r.SMs == 2:
			if r.Speedup < 1.6 || r.Speedup > 2.2 {
				t.Errorf("matrix: 2-SM speedup %.2fx, want ≈2x", r.Speedup)
			}
		case r.Engine == "matrix" && r.SMs == 4:
			if r.Speedup < 2.8 || r.Speedup > 4.4 {
				t.Errorf("matrix: 4-SM speedup %.2fx, want ≈3.5x", r.Speedup)
			}
		case r.Engine == "partitioned" && r.SMs == 4:
			if r.Speedup < 2.0 || r.Speedup > 4.4 {
				t.Errorf("partitioned: 4-SM speedup %.2fx, want 2.2-4x", r.Speedup)
			}
		}
		if p, ok := prev[r.Engine]; ok && r.RateM < p*0.98 {
			t.Errorf("%s: rate regressed when adding SMs (%.1fM after %.1fM)", r.Engine, r.RateM, p)
		}
		prev[r.Engine] = r.RateM
	}
}

func TestBinnedCPUSpeedupAtDepth(t *testing.T) {
	// §III: hash-binned CPU matching beats list traversal once queues
	// are deep (Flajslik et al. report 3.5x at application level).
	rows := cpuCached()
	for _, r := range rows {
		if r.QueueLen >= 1024 && r.BinSpeedup < 1.5 {
			t.Errorf("@%d: binned speedup %.1fx, want >1.5x at depth", r.QueueLen, r.BinSpeedup)
		}
	}
}

func TestEndpointScalingStory(t *testing.T) {
	rows := Endpoints()
	at := func(engine string, eps int) EndpointRow {
		for _, r := range rows {
			if r.Engine == engine && r.Endpoints == eps {
				return r
			}
		}
		t.Fatalf("missing %s@%d", engine, eps)
		return EndpointRow{}
	}
	// The paper's motivation: with thousands of endpoints, compliant
	// matching becomes the limiter. At 4096 endpoints the matrix engine
	// must be orders of magnitude below the hash engine.
	mx, hs := at("matrix", 4096), at("hash", 4096)
	if mx.SustainableHz <= 0 || hs.SustainableHz <= 0 {
		t.Fatal("zero sustainable rates")
	}
	if ratio := hs.SustainableHz / mx.SustainableHz; ratio < 50 {
		t.Errorf("hash/matrix superstep ratio = %.0fx, want >50x at 4096 endpoints", ratio)
	}
	// Hash superstep cost grows sublinearly with endpoints (amortized
	// table work); matrix grows superlinearly past 1024 (multi-CTA
	// serialization).
	if h32, h4096 := at("hash", 32), at("hash", 4096); h4096.SuperstepUS > 128*h32.SuperstepUS/4 {
		t.Errorf("hash superstep grew linearly or worse: %.1fµs → %.1fµs", h32.SuperstepUS, h4096.SuperstepUS)
	}
	for _, eng := range []string{"matrix", "partitioned", "hash"} {
		prev := 0.0
		for _, eps := range []int{32, 256, 1024, 4096} {
			r := at(eng, eps)
			if r.SuperstepUS <= prev {
				t.Errorf("%s: superstep time not increasing with endpoints (%v @%d)", eng, r.SuperstepUS, eps)
			}
			prev = r.SuperstepUS
		}
	}
}

func TestCommParallelExperiment(t *testing.T) {
	rows := CommParallel()
	for _, r := range rows {
		switch r.Comms {
		case 1:
			if r.Speedup != 1 {
				t.Errorf("baseline speedup = %v", r.Speedup)
			}
		case 7:
			if r.Speedup < 3.5 {
				t.Errorf("7-communicator speedup = %.2fx, want >3.5x", r.Speedup)
			}
		}
	}
}

func TestAblationWindowRuns(t *testing.T) {
	rows := AblationWindow()
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.RateM < 3 || r.RateM > 10 {
			t.Errorf("window %d: rate %.2fM outside the Pascal matrix band", r.Window, r.RateM)
		}
	}
}

func TestAppSizesProtocolMix(t *testing.T) {
	rows := AppSizes(1)
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	byApp := map[string]AppSizeRow{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.MedianBytes <= 0 || r.MaxBytes < r.MedianBytes {
			t.Errorf("%s: degenerate sizes %+v", r.App, r)
		}
	}
	// Halo/field exchanges are rendezvous-heavy; solver handshakes are
	// eager-heavy.
	if byApp["LULESH"].EagerPct > 20 {
		t.Errorf("LULESH eager %.0f%%, want rendezvous-dominated", byApp["LULESH"].EagerPct)
	}
	if byApp["AMG"].EagerPct < 80 || byApp["Nekbone"].EagerPct < 80 {
		t.Errorf("AMG/Nekbone eager %.0f%%/%.0f%%, want eager-dominated",
			byApp["AMG"].EagerPct, byApp["Nekbone"].EagerPct)
	}
}
