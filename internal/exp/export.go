package exp

import (
	"encoding/json"
	"io"

	"xmp/internal/workload"
)

// This file exports experiment results as JSON so external tooling can
// plot the reproduction next to the paper's figures. The schema is
// deliberately flat: one object per cell with the numbers its tables print.

// WriteJSON writes the matrix as indented JSON: one object per (row,
// scheme) cell, row-major, with the metrics merge assembled it from — for
// the paper's matrix the source data of Tables 1/3 and Figures 8-11.
func (m *Matrix) WriteJSON(w io.Writer) error {
	type cell struct {
		Pattern string             `json:"pattern"`
		Scheme  string             `json:"scheme"`
		Metrics map[string]float64 `json:"metrics"`
	}
	var cells []cell
	for _, row := range m.Rows {
		for _, s := range m.Schemes {
			cells = append(cells, cell{row.String(), workload.SchemeString(s), m.Get(row, s).Metrics})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Cells []cell `json:"cells"`
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
