package vm

// ScanLists reports whether m narrows its partner scans to the static
// schedule's per-channel scan lists.
func ScanLists(m *Machine) bool { return m.sched != nil }

// KeptProcs returns how many processes m's restores left as they were
// instead of rebuilding them.
func KeptProcs(m *Machine) int64 { return m.keptProcs }

// CopiedSegments returns how many key segments m's SaveKeys copied from
// the base instead of walking.
func CopiedSegments(m *Machine) int64 { return m.copiedSegs }

// SharedProcs returns how many times m rebuilt or walked a process that
// was not dirty, because it shares an object with another process.
func SharedProcs(m *Machine) int64 { return m.sharedProcs }
