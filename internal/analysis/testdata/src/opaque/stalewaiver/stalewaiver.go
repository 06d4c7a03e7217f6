// Package stalewaiver exercises the waiver check of analysis.Run: every name
// in a waiver must be an analyzer of the suite, so a waiver left behind by a
// deleted analyzer is reported instead of silently ignored.
package stalewaiver

func deletedAnalyzer() int {
	//opaque:allow(snapshotpin) the analyzer this names was deleted // want `\[allow\] waiver names "snapshotpin", which is no analyzer of the suite`
	return 0
}

func oneStaleNameInAList() int {
	//opaque:allow(noalloc, nosuch) only the unknown name is reported // want `\[allow\] waiver names "nosuch", which is no analyzer of the suite`
	return 0
}
