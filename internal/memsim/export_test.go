package memsim

// PoolPeak returns the most pooled hierarchies that existed at once
// since the last call, and restarts the count from those that exist now.
func PoolPeak() int {
	p := hierarchies
	p.mu.Lock()
	defer p.mu.Unlock()
	peak := p.peak
	p.peak = p.live
	return peak
}

// String names the kind in subtest names and failure messages.
func (k AccessKind) String() string {
	switch k {
	case AccessLoad:
		return "load"
	case AccessRFO:
		return "rfo"
	case AccessClaimI2M:
		return "claim-i2m"
	case AccessClaimL2:
		return "claim-l2"
	case AccessWriteNT:
		return "write-nt"
	case AccessWriteNTReverted:
		return "write-nt-reverted"
	case AccessWriteStreamed:
		return "write-streamed"
	}
	return "unknown"
}
