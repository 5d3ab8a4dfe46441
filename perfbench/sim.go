package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vcabench/vcabench"
	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/simnet"
	"github.com/vcabench/vcabench/internal/stats"
)

// coldName names the cold-grid campaign; every unit key starts with it.
const coldName = "perfbench-cold"

// coldSpec is the cold-grid campaign: zoom/webex/meet × low/high motion
// × N ∈ {2, 4} × downlink cap ∈ {0, 500 kbit/s} × audio off/on, with a
// US-East host and US-zone receivers — 48 cells.
func coldSpec() vcabench.Campaign {
	return vcabench.Campaign{
		Name:       coldName,
		Geometries: []vcabench.Geometry{{Host: "US-East", Zone: "US"}},
		Motions:    []string{"low-motion", "high-motion"},
		Sizes:      []int{2, 4},
		CapsBps:    []int64{0, 500_000},
		Audio:      []bool{false, true},
	}
}

// lagIDs are the lag-fleet figures, run by ID through the facade.
var lagIDs = []string{"fig4", "fig5", "fig6", "fig7"}

// recordStore is a CellStore that keeps a copy of every Put, keyed by
// the unit key that ends the store key (the part from prefix on). With
// a nil next it never hits, so a run through it computes every unit.
type recordStore struct {
	prefix string
	next   vcabench.CellStore

	mu   sync.Mutex
	puts map[string][]byte
}

func newRecordStore(prefix string, next vcabench.CellStore) *recordStore {
	return &recordStore{prefix: prefix, next: next, puts: map[string][]byte{}}
}

func (s *recordStore) Get(key string) ([]byte, bool) {
	if s.next == nil {
		return nil, false
	}
	return s.next.Get(key)
}

func (s *recordStore) Put(key string, data []byte) error {
	i := strings.Index(key, "/"+s.prefix)
	if i < 0 {
		return fmt.Errorf("store key %q has no %q unit key", key, s.prefix)
	}
	s.mu.Lock()
	s.puts[key[i+1:]] = bytes.Clone(data)
	s.mu.Unlock()
	if s.next == nil {
		return nil
	}
	return s.next.Put(key, data)
}

// encodeUnit is the gob encoding the cell store persists for a unit.
func encodeUnit(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		panic("perfbench: encode unit: " + err.Error())
	}
	return buf.Bytes()
}

func decodeUnit(data []byte) (any, error) {
	var v any
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v)
	return v, err
}

// lagDigest is a canonical digest of a lag study. Its gob encoding
// walks maps in random order, so the maps are hashed in key order.
func lagDigest(v any) []byte {
	r := v.(*core.LagStudyResult)
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%x|", r.Kind, r.HostRegion.Name,
		r.Endpoints.Total, r.Endpoints.Sessions, r.Endpoints.PerSession)
	for _, m := range []map[string]*stats.Sample{r.Lags, r.RTTs} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s:", k)
			binary.Write(h, binary.LittleEndian, m[k].Values())
		}
	}
	f := r.Fig2
	binary.Write(h, binary.LittleEndian, f.SentT)
	binary.Write(h, binary.LittleEndian, f.RecvT)
	for _, xs := range [][]int{f.SentS, f.RecvS} {
		for _, x := range xs {
			binary.Write(h, binary.LittleEndian, int64(x))
		}
	}
	return h.Sum(nil)
}

// campaignJSON is the campaign's JSON output, the bytes a user keeps.
func campaignJSON(res *vcabench.CampaignResult) ([]byte, error) {
	var buf bytes.Buffer
	err := vcabench.WriteJSON(&buf, res)
	return buf.Bytes(), err
}

// repeat is n copies of x: every unit of one call shares its latency.
func repeat(x float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = x
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// coldGrid runs the 48-cell campaign cold, on a fresh on-disk store in
// every pass.
type coldGrid struct {
	cfg   config
	spec  vcabench.Campaign
	units []simUnit
	ref   [32]byte          // digest of the campaign JSON
	refs  map[string][]byte // unit key → reference cell encoding
}

func newColdGrid(cfg config) *coldGrid {
	return &coldGrid{cfg: cfg, spec: coldSpec()}
}

// freshStore opens a store in a new, empty directory.
func (w *coldGrid) freshStore() (*vcabench.Store, string, error) {
	dir, err := os.MkdirTemp(w.cfg.tmp, "cold-")
	if err != nil {
		return nil, "", err
	}
	st, err := vcabench.OpenStore(dir)
	return st, dir, err
}

// setUp computes the reference serially with no cache: the campaign
// JSON digest and every cell's encoding.
func (w *coldGrid) setUp() error {
	units, err := coldUnits(w.spec)
	if err != nil {
		return err
	}
	rs := newRecordStore(coldName+"/", nil)
	tb := vcabench.NewTestbedParallel(w.cfg.seed, 1).WithStore(rs)
	res, err := vcabench.RunCampaign(tb, w.spec, vcabench.TinyScale)
	if err != nil {
		return err
	}
	out, err := campaignJSON(res)
	if err != nil {
		return err
	}
	ref := sha256.Sum256(out)
	if err := sameReference(w.refs, rs.puts, w.ref, ref, len(units)); err != nil {
		return err
	}
	w.units, w.ref, w.refs = units, ref, rs.puts
	return nil
}

// sameReference checks a reference build against the previous one:
// set-up is repeated, and the reference must not change between builds.
func sameReference(prev, refs map[string][]byte, prevDigest, digest [32]byte, units int) error {
	if len(refs) != units {
		return fmt.Errorf("reference run stored %d units, want %d", len(refs), units)
	}
	if prev == nil {
		return nil
	}
	if digest != prevDigest {
		return fmt.Errorf("reference output differs between set-ups")
	}
	for k, b := range refs {
		if !bytes.Equal(prev[k], b) {
			return fmt.Errorf("reference unit %s differs between set-ups", k)
		}
	}
	return nil
}

func (w *coldGrid) measure(d time.Duration) (*run, error) {
	return passes(d, w.pass)
}

// pass runs the campaign once on a fresh store; every cell's result
// reaches the caller when RunCampaign returns.
func (w *coldGrid) pass() (int, int, []float64, error) {
	t0 := time.Now()
	st, dir, err := w.freshStore()
	defer os.RemoveAll(dir)
	if err != nil {
		return 0, 0, nil, err
	}
	tb := vcabench.NewTestbedParallel(w.cfg.seed, w.cfg.workers).WithStore(st)
	res, err := vcabench.RunCampaign(tb, w.spec, vcabench.TinyScale)
	if err != nil {
		return 0, 0, nil, err
	}
	out, err := campaignJSON(res)
	if err != nil {
		return 0, 0, nil, err
	}
	lat := ms(time.Since(t0))
	n := len(w.units)
	failed := 0
	if sha256.Sum256(out) != w.ref || tb.StoreErr() != nil {
		failed = n
	}
	return n, failed, repeat(lat, n), nil
}

// traced measures the scheduler's idle share once, then runs traced
// passes: each cell on a testbed the benchmark owns, with a store read
// before and a store write after, as the campaign does.
func (w *coldGrid) traced(d time.Duration, rec *recorder) (*totals, error) {
	tot := &totals{}
	idle, ok, err := idleShare(w.cfg.workers, func(tel *obs.Telemetry) (bool, error) {
		st, dir, err := w.freshStore()
		defer os.RemoveAll(dir)
		if err != nil {
			return false, err
		}
		tb := vcabench.NewTestbedParallel(w.cfg.seed, w.cfg.workers).WithStore(st).WithTelemetry(tel)
		res, err := vcabench.RunCampaign(tb, w.spec, vcabench.TinyScale)
		if err != nil {
			return false, err
		}
		out, err := campaignJSON(res)
		return err == nil && sha256.Sum256(out) == w.ref, err
	})
	if err != nil {
		return nil, err
	}
	tot.idle = idle
	if !ok {
		tot.failed = len(w.units)
	}
	spec, err := json.Marshal(w.spec)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(d)
	for tot.passes == 0 || time.Now().Before(deadline) {
		st, dir, err := w.freshStore()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		rs := rec.start("", "core.resolve", 0)
		c, err := core.ParseCampaign(spec)
		if err == nil {
			_, err = c.UnitKeys()
		}
		rec.end(rs)
		if err != nil {
			return nil, err
		}
		before := st.Stats()
		simPass(core.NewTestbed(w.cfg.seed), w.units, w.cfg.workers, rec, tot, st, encodeUnit, w.refs)
		after := st.Stats()
		tot.wall += time.Since(t0)
		tot.passes++
		tot.gets += after.MemHits + after.DiskHits + after.Misses - before.MemHits - before.DiskHits - before.Misses
		tot.memHits += after.MemHits - before.MemHits
		os.RemoveAll(dir)
	}
	return tot, nil
}

func (w *coldGrid) close() {}

// coldUnits expands the grid in the campaign's axis order into units the
// traced run executes itself, and checks their keys against the
// campaign's own.
func coldUnits(spec vcabench.Campaign) ([]simUnit, error) {
	var units []simUnit
	var keys []string
	for _, kind := range platform.Kinds {
		for _, motion := range []media.MotionClass{media.LowMotion, media.HighMotion} {
			for _, n := range spec.Sizes {
				for _, capBps := range spec.CapsBps {
					for _, audio := range spec.Audio {
						seg := "noaudio"
						if audio {
							seg = "audio"
						}
						c := qoeCell{kind: kind, motion: motion, n: n, capBps: capBps, audio: audio}
						key := fmt.Sprintf("%s/%s/%s/%d/%d/%s", coldName, kind, motion, n, capBps, seg)
						keys = append(keys, key)
						units = append(units, simUnit{key: key, study: c.study, replay: c.replay})
					}
				}
			}
		}
	}
	want, err := spec.UnitKeys()
	if err != nil {
		return nil, err
	}
	if strings.Join(keys, "\n") != strings.Join(want, "\n") {
		return nil, fmt.Errorf("cold-grid unit keys do not match the campaign's")
	}
	return units, nil
}

// qoeCell is one cold-grid cell's axes.
type qoeCell struct {
	kind   platform.Kind
	motion media.MotionClass
	n      int
	capBps int64
	audio  bool
}

// study runs the cell exactly as the campaign engine does.
func (c qoeCell) study(stb *core.Testbed) any {
	return core.RunQoEStudyWithSetup(stb, c.kind, geo.USEast, core.QoEReceiverRegions(geo.ZoneUS, c.n-1),
		c.motion, core.TinyScale, core.QoEOpts{DownlinkCapBps: c.capBps, WithAudio: c.audio}, nil)
}

// lagFleet renders Figs 4-7 through the facade's run-by-ID, no store.
type lagFleet struct {
	cfg   config
	units []simUnit
	ref   [32]byte          // digest of the four rendered figures
	refs  map[string][]byte // unit key → canonical digest of the reference study
}

func newLagFleet(cfg config) *lagFleet {
	var units []simUnit
	for _, sce := range core.LagScenarios() {
		for _, kind := range platform.Kinds {
			c := lagCell{kind: kind, sce: sce}
			units = append(units, simUnit{key: "lag/" + sce.ID + "/" + string(kind), study: c.study, replay: c.replay})
		}
	}
	return &lagFleet{cfg: cfg, units: units}
}

// render runs the four figures and digests their text.
func (w *lagFleet) render(opts vcabench.RunOpts, lat func(float64)) ([32]byte, error) {
	h := sha256.New()
	for _, id := range lagIDs {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := vcabench.RunWithOpts(id, w.cfg.seed, vcabench.TinyScale, opts, &buf); err != nil {
			return [32]byte{}, err
		}
		lat(ms(time.Since(t0)))
		h.Write(buf.Bytes())
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// setUp renders the figures serially with a store that never hits, so
// every lag study is computed and its result recorded.
func (w *lagFleet) setUp() error {
	rs := newRecordStore("lag/", nil)
	ref, err := w.render(vcabench.RunOpts{Workers: 1, Store: rs}, func(float64) {})
	if err != nil {
		return err
	}
	refs := make(map[string][]byte, len(rs.puts))
	for k, b := range rs.puts {
		v, err := decodeUnit(b)
		if err != nil {
			return fmt.Errorf("decode reference %s: %w", k, err)
		}
		refs[k] = lagDigest(v)
	}
	for _, u := range w.units {
		if refs[u.key] == nil {
			return fmt.Errorf("reference run has no unit %s", u.key)
		}
	}
	if err := sameReference(w.refs, refs, w.ref, ref, len(w.units)); err != nil {
		return err
	}
	w.ref, w.refs = ref, refs
	return nil
}

func (w *lagFleet) measure(d time.Duration) (*run, error) {
	return passes(d, w.pass)
}

// pass renders the four figures; a figure's three units reach the
// caller when its run returns.
func (w *lagFleet) pass() (int, int, []float64, error) {
	var lat []float64
	got, err := w.render(vcabench.RunOpts{Workers: w.cfg.workers}, func(x float64) {
		lat = append(lat, repeat(x, len(platform.Kinds))...)
	})
	if err != nil {
		return 0, 0, nil, err
	}
	failed := 0
	if got != w.ref {
		failed = len(w.units)
	}
	return len(w.units), failed, lat, nil
}

func (w *lagFleet) traced(d time.Duration, rec *recorder) (*totals, error) {
	tot := &totals{}
	idle, ok, err := idleShare(w.cfg.workers, func(tel *obs.Telemetry) (bool, error) {
		got, err := w.render(vcabench.RunOpts{Workers: w.cfg.workers, Telemetry: tel}, func(float64) {})
		return err == nil && got == w.ref, err
	})
	if err != nil {
		return nil, err
	}
	tot.idle = idle
	if !ok {
		tot.failed = len(w.units)
	}
	deadline := time.Now().Add(d)
	for tot.passes == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		simPass(core.NewTestbed(w.cfg.seed), w.units, w.cfg.workers, rec, tot, nil, lagDigest, w.refs)
		tot.wall += time.Since(t0)
		tot.passes++
	}
	return tot, nil
}

func (w *lagFleet) close() {}

// lagCell is one (scenario, platform) lag unit.
type lagCell struct {
	kind platform.Kind
	sce  core.LagScenario
}

func (c lagCell) study(stb *core.Testbed) any {
	return core.RunLagStudy(stb, c.kind, c.sce.Host, c.sce.Fleet, core.TinyScale)
}

// idleShare runs one pass through the program's own scheduler with its
// span tracer attached and returns the share of worker time not spent
// in local-run spans, and whether the pass's output was right.
func idleShare(workers int, pass func(*obs.Telemetry) (bool, error)) (float64, bool, error) {
	tel := &obs.Telemetry{Tracer: obs.NewTracer(obs.RealClock{}), Clock: obs.RealClock{}}
	t0 := time.Now()
	ok, err := pass(tel)
	wall := time.Since(t0)
	if err != nil {
		return 0, false, err
	}
	var buf bytes.Buffer
	if err := tel.Tracer.WriteJSONL(&buf); err != nil {
		return 0, false, err
	}
	busy := 0.0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s struct {
			Tier  string `json:"tier"`
			DurNS int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return 0, false, err
		}
		if s.Tier == obs.TierLocalRun {
			busy += float64(s.DurNS)
		}
	}
	return 1 - busy/(float64(workers)*float64(wall)), ok, nil
}

// simUnit is one simulated unit of cold-grid or lag-fleet as the traced
// run executes it: the study on a testbed the benchmark owns, then a
// replay of its media, codec and qoe calls.
type simUnit struct {
	key    string
	study  func(stb *core.Testbed) any
	replay func(rec *recorder, req string, parent int, seed int64, res any, tot *totals)
}

// pipeCounter is a simnet pipe probe that counts packets and drops.
type pipeCounter struct{ fwd, drop int64 }

func (c *pipeCounter) PipeForwarded(string, time.Time, int, int, int, time.Duration) { c.fwd++ }
func (c *pipeCounter) PipeDropped(string, time.Time, int, simnet.DropCause)          { c.drop++ }

// simPass runs units on workers goroutines, each on root.Fork(key) as the
// campaign scheduler would, checks each result against refs through
// digest, and then replays every unit's media, codec and qoe calls
// serially, so each layer's time and allocation are its own. With a
// store, each unit is looked up before and written after it runs.
func simPass(root *core.Testbed, units []simUnit, workers int, rec *recorder, tot *totals, st vcabench.CellStore, digest func(any) []byte, refs map[string][]byte) {
	type outcome struct {
		seed                  int64
		res                   any
		events, packets, drop int64
		bytes                 int
		failed                bool
	}
	outs := make([]outcome, len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				u := units[i]
				sp := rec.start(u.key, "unit", 0)
				s := rec.start(u.key, "core.testbed", sp)
				stb := root.Fork(u.key)
				rec.end(s)
				pc := &pipeCounter{}
				stb.Net.SetPipeProbe(pc)
				if st != nil {
					s = rec.start(u.key, "store.get", sp)
					st.Get(u.key)
					rec.end(s)
				}
				s = rec.start(u.key, "core.cell", sp)
				res := u.study(stb)
				rec.end(s)
				data := digest(res)
				o := outcome{seed: stb.Seed(), res: res, events: int64(stb.Sim.Steps()),
					packets: pc.fwd, drop: pc.drop + stb.Net.DistanceDrops(),
					failed: !bytes.Equal(data, refs[u.key])}
				if st != nil {
					s = rec.start(u.key, "store.put", sp)
					o.failed = st.Put(u.key, data) != nil || o.failed
					rec.end(s)
					o.bytes = len(data)
				}
				rec.end(sp)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	for i, u := range units {
		o := outs[i]
		sp := rec.start(u.key, "replay", 0)
		u.replay(rec, u.key, sp, o.seed, o.res, tot)
		rec.end(sp)
		tot.units++
		tot.events += o.events
		tot.packets += o.packets
		tot.drops += o.drop
		tot.storeBytes += int64(o.bytes)
		if o.failed {
			tot.failed++
		}
	}
}
