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
