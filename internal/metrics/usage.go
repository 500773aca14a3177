package metrics

// ByteMeter counts bytes moved on a resource (network link, disk) so that
// sustained bandwidth can be reported.
type ByteMeter struct {
	bytes int64
}

// Add accrues n bytes.
func (b *ByteMeter) Add(n int) {
	if n > 0 {
		b.bytes += int64(n)
	}
}

// Bytes reports the total.
func (b *ByteMeter) Bytes() int64 { return b.bytes }
