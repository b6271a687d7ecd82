package serve

// SetMaxFinishedJobs lowers how many finished jobs s keeps, so tests
// reach eviction without finishing maxFinishedJobs jobs. Call it before
// the first job finishes.
func SetMaxFinishedJobs(s *Server, n int) {
	s.mu.Lock()
	s.maxFinished = n
	s.mu.Unlock()
}
