package routing

// The table checks, for the external test that routes the architectures
// of packages that import this one.
var (
	CheckTables = checkTables
	DeadSets    = deadSets
)
