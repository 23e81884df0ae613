package trace

// NewMemoNoSharing returns a memo that stores nothing: every loop run
// through it replays, as if each replay had a fresh memo.
func NewMemoNoSharing() *Memo { return newMemo(0) }
