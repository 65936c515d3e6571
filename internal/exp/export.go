package exp

import (
	"encoding/json"
	"io"

	"xmp/internal/metrics"
	"xmp/internal/topo"
)

// This file exports experiment results as JSON so external tooling can
// plot the reproduction next to the paper's figures. The schema is
// deliberately flat: one object per (pattern, scheme) cell with summary
// statistics and the CDF point lists the figures are drawn from.

// DistJSON is the serialized form of a metrics.Dist.
type DistJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P10  float64 `json:"p10"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// CDF point lists (optional, only on the distributions figures use).
	CDFX []float64 `json:"cdf_x,omitempty"`
	CDFY []float64 `json:"cdf_y,omitempty"`
}

func distJSON(d *metrics.Dist, withCDF bool) DistJSON {
	out := DistJSON{
		N:    d.N(),
		Mean: d.Mean(),
		P10:  d.Percentile(10),
		P50:  d.Percentile(50),
		P90:  d.Percentile(90),
		Min:  d.Min(),
		Max:  d.Max(),
	}
	if withCDF && d.N() > 0 {
		out.CDFX, out.CDFY = d.CDF()
	}
	return out
}

// CellJSON is one (pattern, scheme) fat-tree run.
type CellJSON struct {
	Pattern string `json:"pattern"`
	Scheme  string `json:"scheme"`

	Flows      int     `json:"flows_completed"`
	BytesMoved int64   `json:"bytes_moved"`
	SimSeconds float64 `json:"sim_seconds"`
	Drops      int64   `json:"drops"`
	Marks      int64   `json:"marks"`

	GoodputMbps   DistJSON            `json:"goodput_mbps"`
	GoodputByCat  map[string]DistJSON `json:"goodput_by_category"`
	RTTMsByCat    map[string]DistJSON `json:"rtt_ms_by_category"`
	JCTMs         DistJSON            `json:"jct_ms"`
	JCTAbove300ms float64             `json:"jct_frac_above_300ms"`
	UtilByLayer   map[string]DistJSON `json:"util_by_layer"`
}

func cellJSON(r *FatTreeResult) CellJSON {
	col := r.Collector
	out := CellJSON{
		Pattern:       string(r.Pattern),
		Scheme:        r.Scheme.Label(),
		Flows:         col.FlowsCompleted,
		BytesMoved:    col.BytesMoved,
		SimSeconds:    r.SimDuration.Seconds(),
		Drops:         r.Drops,
		Marks:         r.Marks,
		GoodputMbps:   distJSON(col.Goodput, true),
		GoodputByCat:  map[string]DistJSON{},
		RTTMsByCat:    map[string]DistJSON{},
		JCTMs:         distJSON(col.JCT, true),
		JCTAbove300ms: col.JCT.FractionAbove(300),
		UtilByLayer:   map[string]DistJSON{},
	}
	for _, cat := range []topo.Category{topo.InterPod, topo.InterRack, topo.InnerRack} {
		out.GoodputByCat[cat.String()] = distJSON(col.GoodputByCat[cat], false)
		out.RTTMsByCat[cat.String()] = distJSON(col.RTT[cat], false)
	}
	for layer, d := range r.UtilByLayer {
		out.UtilByLayer[layer] = distJSON(d, false)
	}
	return out
}

// WriteJSON serializes the whole matrix (Tables 1/3 + Figures 8-11 source
// data) as indented JSON.
func (m *Matrix) WriteJSON(w io.Writer) error {
	var cells []CellJSON
	for _, p := range m.Patterns {
		for _, s := range m.Schemes {
			if r := m.Get(p, s); r != nil {
				cells = append(cells, cellJSON(r))
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Cells []CellJSON `json:"cells"`
	}{cells})
}

// WriteJSON serializes the coexistence sweep.
func (r *Table2Result) WriteJSON(w io.Writer) error {
	type cell struct {
		Other        string  `json:"other_scheme"`
		QueueLimit   int     `json:"queue_limit"`
		XMPGoodput   float64 `json:"xmp_goodput_mbps"`
		OtherGoodput float64 `json:"other_goodput_mbps"`
		XMPFlows     int     `json:"xmp_flows"`
		OtherFlows   int     `json:"other_flows"`
	}
	var cells []cell
	for _, c := range r.Cells {
		cells = append(cells, cell{
			Other:        c.Other.Label(),
			QueueLimit:   c.QueueLimit,
			XMPGoodput:   c.XMPGoodput,
			OtherGoodput: c.OtherGoodput,
			XMPFlows:     c.XMPFlows,
			OtherFlows:   c.OtherFlows,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Cells []cell `json:"cells"`
	}{cells})
}
