package store

import (
	"math"
	"sync"
	"time"
)

// loadDecay is the geometric decay applied to accumulated load-bandwidth
// history per new observation: recent reads dominate, and a hardware or
// environment change is forgotten within a handful of loads.
const loadDecay = 0.7

// minLoadModelBytes is the smallest read the bandwidth model learns from.
// Below this, per-read constant costs (seek, syscall, decode setup)
// dominate and the computed "bandwidth" is noise; tiny-artifact sessions
// therefore keep the static estimate and byte-stable plan fingerprints.
const minLoadModelBytes = 64 << 10

// loadAdoptBand is the hysteresis ratio for (re-)adopting an observed
// bandwidth: the raw measurement must differ from the bandwidth the
// estimate currently uses — the adopted value, or the static assumption
// while none has been adopted — by more than this factor either way.
// Within the band the static model is close enough that correcting it
// would buy little accuracy while dirtying plan fingerprints (measured
// reads include decode overhead, so observed bandwidth always sits a
// little under a simulated disk's configured throughput).
const loadAdoptBand = 1.7

// loadModel is the store's self-correcting load-bandwidth estimator. Each
// sufficiently large physical read contributes its byte count and
// measured transfer time (the read syscall plus any simulated-disk
// throttle — decode excluded, matching the paper's l_i = s_i/(disk speed)
// model); the decayed ratio is the observed bandwidth.
//
// The bandwidth EstimateLoad actually uses is deliberately coarse: the
// raw estimate is quantized to the nearest power of two and adopted only
// when the raw value sits outside a loadAdoptBand× band around the
// bandwidth the estimate currently assumes (the previously adopted value,
// or the static assumption before any adoption). Plan fingerprints hash
// projected load costs, so a load estimate that wobbled with every read
// would dirty the plan cache on every iteration; quantization plus
// hysteresis keeps the estimate byte-stable across runs unless measured
// throughput genuinely contradicts it, while still converging within a
// factor √2 of the measured bandwidth when it does.
type loadModel struct {
	//lint:nolockio
	mu      sync.Mutex
	bytes   float64 // decayed cumulative bytes read
	secs    float64 // decayed cumulative read seconds
	adopted float64 // quantized bandwidth in use; 0 = none yet
}

// observe folds one physical read into the model. staticBW is the
// bandwidth the static estimate would assume (the configured simulated
// throughput, or the fast-local-disk default): while nothing has been
// adopted it serves as the hysteresis reference, so measurements that
// roughly agree with the static model never perturb it.
func (m *loadModel) observe(size int64, dur time.Duration, staticBW float64) {
	if size < minLoadModelBytes || dur <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytes = m.bytes*loadDecay + float64(size)
	m.secs = m.secs*loadDecay + dur.Seconds()
	raw := m.bytes / m.secs
	if raw <= 0 || math.IsInf(raw, 0) || math.IsNaN(raw) {
		return
	}
	ref := m.adopted
	if ref == 0 {
		ref = staticBW
	}
	if ref <= 0 {
		m.adopted = quantizeBandwidth(raw)
		return
	}
	if r := raw / ref; r > loadAdoptBand || r < 1/loadAdoptBand {
		m.adopted = quantizeBandwidth(raw)
	}
}

// bandwidth returns the adopted bytes/sec, or 0 when nothing has been
// observed yet.
func (m *loadModel) bandwidth() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.adopted
}

// quantizeBandwidth rounds to the nearest power of two (in log space).
func quantizeBandwidth(bw float64) float64 {
	return math.Exp2(math.Round(math.Log2(bw)))
}
