package core

// Stepper drives one engine epoch at a time, exposing the per-epoch
// observables an external scheduler needs: fetch position, window
// occupancy and the running access/epoch totals. It is a gang of one
// exported for callers that interleave engines over *different* streams
// — the SMT policy engine steps K per-thread engines in lock-step,
// reading each one's state between epochs. Every Step counts, including
// epochs with no access, which OnEpoch does not report.
type Stepper struct {
	e *soaEngine
}

// NewStepper builds a stepper over src; it panics on invalid
// configurations, exactly like NewEngine.
func NewStepper(src AnnotatedSource, cfg Config) *Stepper {
	return &Stepper{e: newGangRing(src, 2*ringSize(cfg), instLimit(cfg)).attach(cfg)}
}

// Step runs one epoch. It returns false when the stream is exhausted and
// no fetched work remains; stepping to exhaustion and calling Finish is
// bit-identical to Engine.Run.
func (s *Stepper) Step() bool { return s.e.step() }

// Finish seals and returns the accumulated result.
func (s *Stepper) Finish() Result { return s.e.finish() }

// Fetched returns the number of instructions fetched so far (one past
// the last fetched instruction's index).
func (s *Stepper) Fetched() int64 { return s.e.fetchEnd }

// Unretired returns the fetched-but-unretired instruction count — the
// live window occupancy an ICOUNT-style fetch policy ranks threads by.
func (s *Stepper) Unretired() int64 { return s.e.fetchEnd - s.e.retire }

// Accesses returns the off-chip accesses recorded so far.
func (s *Stepper) Accesses() uint64 { return s.e.res.Accesses }

// Epochs returns the access-bearing epochs completed so far.
func (s *Stepper) Epochs() uint64 { return s.e.res.Epochs }
