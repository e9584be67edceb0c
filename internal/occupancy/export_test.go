package occupancy

// SetNaiveForTesting switches subsequently created ledgers to the
// reference (index-free) query path. Not safe to flip while ledgers are in
// use on other goroutines.
func SetNaiveForTesting(v bool) { naiveMode = v }
