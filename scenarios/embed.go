// Package scenarios embeds the shipped scenario specs. matrix.json,
// table2.json and the five matrix-family sweeps (sweep, params,
// incastsweep, sack and vl2.json), robustness.json (with
// robustness.chaos.json) and fct.json are the only definition of the
// campaigns of those names — every fabric campaign: internal/scenario
// registers them in the campaign registry, and the xmpsim subcommands are
// aliases for `xmpsim run scenarios/<name>.json`. permutation-flap.json is
// an example spec, not a campaign.
package scenarios

import "embed"

// FS holds every *.json file of this directory.
//
//go:embed *.json
var FS embed.FS
