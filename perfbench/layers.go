package main

import (
	"time"

	"github.com/vcabench/vcabench/internal/codec"
	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/qoe"
)

// totals are the traced run's counts; the layers' times are its spans.
type totals struct {
	units, failed, passes int
	wall                  time.Duration // traced passes
	idle                  float64       // worker idle share of the scheduler pass

	events, packets, drops int64 // simnet
	frames, pairs          int64 // media frames synthesised, qoe pairs scored
	qoeAlloc               uint64

	gets, memHits   uint64 // store lookups and memory-front hits
	storeBytes      int64  // bytes written to (cold-grid) or read from (warm-serve) the store
	retries, errors uint64 // cluster pool
	fallbacks       uint64
}

// replay re-runs the media, codec and qoe calls of one QoE cell with its
// profile, motion, frame count, stride and receiver count: the host's
// source and encoder (seeded as the cell's host client is), every
// receiver's decoder, and one scorer per session. The encoder targets
// the rate the cell's host actually sent.
func (c qoeCell) replay(rec *recorder, req string, parent int, seed int64, res any, tot *totals) {
	q := res.(*core.QoEStudyResult)
	sc := core.TinyScale
	prof := sc.Profile
	perSess := int(sc.QoEDur.Seconds() * float64(prof.FPS))
	recvs := c.n - 1
	audioBps := platform.DefaultConfig(c.kind).AudioBps
	var clip *media.AudioClip
	if c.audio {
		s := rec.start(req, "media.speech", parent)
		clip = media.NewSpeech(sc.QoEDur.Seconds(), seed+11)
		rec.end(s)
	}
	for sess := 0; sess < sc.QoESessions; sess++ {
		s := rec.start(req, "media.next", parent)
		src := media.NewSource(c.motion, prof, seed+300)
		frames := make([]*media.Frame, perSess)
		for i := range frames {
			frames[i] = src.Next()
		}
		rec.end(s)
		tot.frames += int64(perSess)

		s = rec.start(req, "codec.encode", parent)
		enc := codec.NewVideoEncoder(codec.VideoEncoderConfig{
			FPS: prof.FPS, TargetBps: q.UpMbps.Mean() * 1e6,
			BitScale: codec.BitScaleFor(prof), Seed: seed + 301,
		})
		efs := make([]codec.EncodedFrame, perSess)
		ref := make([]*media.Frame, perSess)
		for i, f := range frames {
			efs[i] = enc.Encode(f)
			ref[i] = efs[i].Source
		}
		var afs []codec.AudioFrame
		if clip != nil {
			afs = codec.NewAudioEncoder(audioBps).Encode(clip)
		}
		rec.end(s)

		s = rec.start(req, "codec.decode", parent)
		shown := make([][]*media.Frame, recvs)
		heard := make([]*media.AudioClip, recvs)
		for r := range shown {
			dec := codec.NewVideoDecoder()
			shown[r] = make([]*media.Frame, perSess)
			for i := range efs {
				shown[r][i] = dec.Decode(&efs[i])
			}
			if clip != nil {
				ptrs := make([]*codec.AudioFrame, len(afs))
				for i := range afs {
					ptrs[i] = &afs[i]
				}
				heard[r] = codec.NewAudioDecoder(seed+400+int64(r)+7).Decode(ptrs, clip.Rate, audioBps)
			}
		}
		rec.end(s)

		a0 := totalAlloc()
		s = rec.start(req, "qoe.video", parent)
		scorer := qoe.NewScorer()
		for r := range shown {
			tot.pairs += int64(scorer.CompareVideo(ref, shown[r], sc.QoEStride).Frames)
		}
		rec.end(s)
		if clip != nil {
			s = rec.start(req, "qoe.audio", parent)
			for r := range heard {
				qoe.MOSLQO(clip, heard[r])
			}
			rec.end(s)
		}
		tot.qoeAlloc += totalAlloc() - a0
	}
}

// replay re-runs a lag unit's media and codec calls: the two-second
// flash source the host feeds through every session, and its encoder at
// the encoder's default target. Lag receivers neither decode nor score.
func (c lagCell) replay(rec *recorder, req string, parent int, seed int64, _ any, tot *totals) {
	sc := core.TinyScale
	prof := sc.Profile
	n := sc.LagSessions * int(sc.LagDur.Seconds()*float64(prof.FPS))
	s := rec.start(req, "media.next", parent)
	src := media.NewFlash(prof, 2.0)
	frames := make([]*media.Frame, n)
	for i := range frames {
		frames[i] = src.Next()
	}
	rec.end(s)
	tot.frames += int64(n)
	s = rec.start(req, "codec.encode", parent)
	enc := codec.NewVideoEncoder(codec.VideoEncoderConfig{FPS: prof.FPS, BitScale: codec.BitScaleFor(prof), Seed: seed + 101})
	for _, f := range frames {
		enc.Encode(f)
	}
	rec.end(s)
}

// replayed are the spans whose time the residual excludes.
var replayed = []string{"media.next", "media.speech", "codec.encode", "codec.decode", "qoe.video", "qoe.audio"}

// layerResult turns a traced run into the per-layer metrics. A layer a
// workload does not reach reports 0.
func layerResult(rec *recorder, tot *totals, base *run) *result {
	u := float64(tot.units)
	per := func(x float64) float64 { return x / u }
	cell := rec.totalMS("core.cell")
	replay := 0.0
	for _, name := range replayed {
		replay += rec.totalMS(name)
	}
	residual, eventsPerMS := 0.0, 0.0
	if cell > 0 {
		residual = per(cell - replay)
		eventsPerMS = float64(tot.events) / cell
	}
	handler := rec.durations("serve.handler")
	wire := 0.0
	if len(handler) > 0 {
		wire = (rec.totalMS("unit") - rec.totalMS("serve.handler")) / float64(len(handler))
	}
	memHit := 0.0
	if tot.gets > 0 {
		memHit = float64(tot.memHits) / float64(tot.gets)
	}
	gets := rec.durations("store.get")
	overhead := (u / tot.wall.Seconds()) / median(base.rate)
	return &result{
		Attempted: tot.units,
		Failed:    tot.failed,
		Metrics: map[string]metric{
			"qoe.video_ms_per_unit":       {per(rec.totalMS("qoe.video")), "ms"},
			"qoe.pairs_per_unit":          {per(float64(tot.pairs)), "count"},
			"qoe.audio_ms_per_unit":       {per(rec.totalMS("qoe.audio")), "ms"},
			"qoe.alloc_mb_per_unit":       {per(float64(tot.qoeAlloc) / 1e6), "MB"},
			"media.frames_per_unit":       {per(float64(tot.frames)), "count"},
			"media.next_ms_per_unit":      {per(rec.totalMS("media.next")), "ms"},
			"media.speech_ms_per_unit":    {per(rec.totalMS("media.speech")), "ms"},
			"codec.encode_ms_per_unit":    {per(rec.totalMS("codec.encode")), "ms"},
			"codec.decode_ms_per_unit":    {per(rec.totalMS("codec.decode")), "ms"},
			"simnet.events_per_unit":      {per(float64(tot.events)), "count"},
			"simnet.packets_per_unit":     {per(float64(tot.packets)), "count"},
			"simnet.drops_per_unit":       {per(float64(tot.drops)), "count"},
			"simnet.residual_ms_per_unit": {residual, "ms"},
			"simnet.events_per_ms":        {eventsPerMS, "1/ms"},
			"core.cell_ms":                {rec.meanMS("core.cell"), "ms"},
			"core.worker_idle_ratio":      {tot.idle, "ratio"},
			"core.resolve_ms":             {rec.meanMS("core.resolve"), "ms"},
			"core.testbed_ms":             {rec.meanMS("core.testbed"), "ms"},
			"store.put_ms":                {rec.meanMS("store.put"), "ms"},
			"store.get_p50_ms":            {quantile(gets, 0.50), "ms"},
			"store.get_p99_ms":            {quantile(gets, 0.99), "ms"},
			"store.mem_hit_ratio":         {memHit, "ratio"},
			"store.bytes_per_unit":        {per(float64(tot.storeBytes)), "bytes"},
			"serve.handler_ms":            {rec.meanMS("serve.handler"), "ms"},
			"serve.wire_ms":               {wire, "ms"},
			"cluster.retries":             {float64(tot.retries), "count"},
			"cluster.errors":              {float64(tot.errors), "count"},
			"cluster.fallbacks":           {float64(tot.fallbacks), "count"},
			"trace.overhead_ratio":        {overhead, "ratio"},
		},
	}
}
