package mqsched

// ScribbleFreed makes sys's data store fill every buffer it puts on its free
// list with b, so an output that leaves a recycled byte unwritten answers
// with b instead of an older output's pixel that happens to be right. Call it
// before the first query.
func ScribbleFreed(sys *System, b byte) {
	sys.ds.OnFree = func(data []byte) {
		for i := range data {
			data[i] = b
		}
	}
}
