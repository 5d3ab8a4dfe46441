package core

import (
	"fmt"
	"io"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/report"
)

// arms builds an ablation's two lag units with the same study geometry:
// the baseline on stock platforms, keyed id/base, and the
// counterfactual, keyed id/counter, which applies cfg on its own fork.
// Both resolve like any other lag unit: memoized, stored, traced and
// counted.
func arms(id, base, counter string, host geo.Region, fleet []geo.Region, cfg platform.Config) []lagUnit {
	return []lagUnit{
		{key: id + "/" + base, kind: cfg.Kind, host: host, fleet: fleet},
		{key: id + "/" + counter, kind: cfg.Kind, host: host, fleet: fleet, override: &cfg},
	}
}

// ablations are design-choice benches beyond the paper: each flips one
// inferred infrastructure property and re-measures, confirming that the
// paper's observations are consequences of that property. The baseline
// and counterfactual arms are independent lag units resolved as one
// batch, so they compute in parallel.
func ablations() []Experiment {
	return []Experiment{
		{
			ID:    "ablate-webex-geo",
			Title: "Webex with geo-local (paid-tier) relays",
			Paper: "§6: paid Webex streams from close-by servers (RTT < 20ms)",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				cfg := platform.DefaultConfig(platform.Webex)
				cfg.PaidTier = true
				cfg.USPoPs = []geo.Region{geo.PoPUSEast, geo.PoPUSCentral, geo.PoPUSWest}
				cfg.EUPoPs = []geo.Region{geo.PoPEUWest, geo.PoPEUCentral, geo.PoPEUNorth}
				res := lagStudies(tb, sc, arms("ablate-webex-geo", "free", "paid", geo.CH, EULagFleet(geo.CH), cfg)...)
				free, paid := res[0], res[1]

				t := report.Table{
					Title:  "ablation: Webex free vs paid tier, host CH",
					Header: []string{"client", "free median lag ms", "paid median lag ms", "free median RTT ms", "paid median RTT ms"},
				}
				for _, r := range EULagFleet(geo.CH) {
					t.AddRow(r.Name,
						free.Lags[r.Name].Median(), paid.Lags[r.Name].Median(),
						free.RTTs[r.Name].Median(), paid.RTTs[r.Name].Median())
				}
				t.Render(w)
			},
		},
		{
			ID:    "ablate-meet-single",
			Title: "Meet forced onto a single-relay topology",
			Paper: "tests whether Meet's EU advantage comes from per-client endpoints",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				cfg := platform.DefaultConfig(platform.Meet)
				cfg.PerClientEndpoints = false
				cfg.EUPoPs = nil // US-only footprint, single session relay
				res := lagStudies(tb, sc, arms("ablate-meet-single", "per-client", "single-relay", geo.CH, EULagFleet(geo.CH), cfg)...)
				normal, single := res[0], res[1]

				t := report.Table{
					Title:  "ablation: Meet per-client endpoints vs single US relay, host CH",
					Header: []string{"client", "per-client median lag ms", "single-relay median lag ms"},
				}
				for _, r := range EULagFleet(geo.CH) {
					t.AddRow(r.Name, normal.Lags[r.Name].Median(), single.Lags[r.Name].Median())
				}
				t.Render(w)
			},
		},
		{
			ID:    "ablate-zoom-nolb",
			Title: "Zoom without regional load balancing",
			Paper: "tests whether the 3 RTT bands of Figs 10a/11a come from the US-PoP lottery",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				cfg := platform.DefaultConfig(platform.Zoom)
				cfg.RegionalLB = false // always the nearest US PoP
				res := lagStudies(tb, sc, arms("ablate-zoom-nolb", "lb", "nolb", geo.CH, EULagFleet(geo.CH), cfg)...)
				normal, nolb := res[0], res[1]

				t := report.Table{
					Title:  "ablation: Zoom RTT spread with/without regional LB, host CH",
					Header: []string{"client", "LB RTT min..max ms", "no-LB RTT min..max ms"},
				}
				for _, r := range EULagFleet(geo.CH) {
					a, b := normal.RTTs[r.Name], nolb.RTTs[r.Name]
					t.AddRow(r.Name,
						fmt.Sprintf("%.0f..%.0f", a.Min(), a.Max()),
						fmt.Sprintf("%.0f..%.0f", b.Min(), b.Max()))
				}
				t.Render(w)
			},
		},
		{
			ID:    "ablate-p2p",
			Title: "Zoom with P2P disabled for two-party calls",
			Paper: "§4.2 footnote: N=2 streams peer-to-peer on ephemeral ports",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				cfg := platform.DefaultConfig(platform.Zoom)
				cfg.P2PWhenPair = false
				res := lagStudies(tb, sc, arms("ablate-p2p", "p2p", "relay", geo.USEast, []geo.Region{geo.USWest}, cfg)...)
				normal, relay := res[0], res[1]

				t := report.Table{
					Title:  "ablation: Zoom two-party P2P vs forced relay (host US-East, peer US-West)",
					Header: []string{"mode", "median lag ms", "endpoints seen"},
				}
				t.AddRow("p2p", normal.Lags[geo.USWest.Name].Median(), normal.Endpoints.Total)
				t.AddRow("relay", relay.Lags[geo.USWest.Name].Median(), relay.Endpoints.Total)
				t.Render(w)
			},
		},
	}
}
