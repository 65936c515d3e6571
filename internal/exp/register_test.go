package exp_test

// The spec-backed campaigns (matrix, its sweeps, robustness and fct) exist
// only as the specs in scenarios/, which internal/scenario registers in the
// campaign registry. exp cannot import its own client, so this external
// test file links the registration into the test binary for the golden and
// registry tests of package exp.
import _ "xmp/internal/scenario"
