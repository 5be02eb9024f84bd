package seq

// SubIsoScan exposes the reference enumeration to the external equivalence
// suite, which needs internal/queries for the pattern library.
var SubIsoScan = subIsoScan
