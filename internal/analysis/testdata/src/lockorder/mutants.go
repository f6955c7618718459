package lockorder

import "sync"

// The mutants only this pass catches (EXPERIMENTS.md, "What each seclint
// pass catches"): internal/serve takes Service.mu before Job.mu; cancel
// and finish with the two acquisitions swapped deadlock only when they
// run at the same moment as a path taking the right order, which no test
// arranges.

type service struct {
	mu   sync.Mutex
	jobs map[string]*job
}

type job struct {
	mu        sync.Mutex
	cancelled bool
}

// submit takes the order every other path of the service takes.
func (s *service) submit(id string) {
	s.mu.Lock()
	j := s.jobs[id]
	j.mu.Lock() // want `lock order inversion: job.mu acquired while service.mu is held`
	j.mu.Unlock()
	s.mu.Unlock()
}

// cancel, swapped.
func (j *job) cancel(s *service) {
	j.mu.Lock()
	s.mu.Lock() // want `lock order inversion: service.mu acquired while job.mu is held`
	j.cancelled = true
	j.mu.Unlock()
	s.mu.Unlock()
}

// finish, swapped.
func (s *service) finish(j *job) {
	j.mu.Lock()
	s.mu.Lock()
	j.mu.Unlock()
	s.mu.Unlock()
}
