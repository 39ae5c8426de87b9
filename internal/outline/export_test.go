package outline

// CheckGolden lets the external test package share the -update flag.
var CheckGolden = checkGolden
