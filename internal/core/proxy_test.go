package core

import (
	"errors"
	"testing"

	"pepc/internal/diameter"
	"pepc/internal/hss"
	"pepc/internal/pcrf"
	"pepc/internal/state"
)

// failingHandler injects backend failures: errors, failure result codes,
// or garbage answers, switched per call.
type failingHandler struct {
	mode  string
	inner diameter.Handler
	calls int
}

func (f *failingHandler) Handle(req *diameter.Message) (*diameter.Message, error) {
	f.calls++
	switch f.mode {
	case "error":
		return nil, errors.New("backend down")
	case "reject":
		return req.Answer(diameter.ResultUserUnknown), nil
	default:
		return f.inner.Handle(req)
	}
}

func TestProxyAuthenticate(t *testing.T) {
	h := hss.New()
	h.ProvisionRange(1, 10, 10e6, 50e6)
	p := NewProxy(h, nil)
	vec, err := p.Authenticate(5)
	if err != nil {
		t.Fatal(err)
	}
	if vec.KASME == [32]byte{} {
		t.Fatal("empty vector")
	}
	if _, err := p.Authenticate(999); err != ErrBackendFail {
		t.Fatalf("unknown subscriber: %v", err)
	}
	if p.Requests.Load() != 2 {
		t.Fatalf("requests = %d", p.Requests.Load())
	}
}

func TestProxyNoBackends(t *testing.T) {
	p := NewProxy(nil, nil)
	if _, err := p.Authenticate(1); err != ErrNoBackend {
		t.Fatalf("authenticate: %v", err)
	}
	if _, _, err := p.UpdateLocation(1); err != ErrNoBackend {
		t.Fatalf("location: %v", err)
	}
	// Gx is optional: attach proceeds without a PCRF.
	rules, err := p.EstablishGxSession(1)
	if err != nil || rules != nil {
		t.Fatalf("gx without pcrf: %v %v", rules, err)
	}
	if err := p.ReportUsage(1, 100); err != nil {
		t.Fatalf("usage without pcrf: %v", err)
	}
	if err := p.TerminateGxSessionBatch([]uint64{1}); err != nil {
		t.Fatalf("terminate without pcrf: %v", err)
	}
}

func TestAttachFailsCleanlyWhenHSSDown(t *testing.T) {
	fh := &failingHandler{mode: "error"}
	s := NewSlice(SliceConfig{ID: 1, UserHint: 16})
	s.Control().SetProxy(NewProxy(fh, nil))
	if _, err := s.Control().Attach(AttachSpec{IMSI: 7}); err == nil {
		t.Fatal("attach succeeded with HSS down")
	}
	// No partial state: the user is not half-attached.
	if s.Control().Lookup(7) != nil {
		t.Fatal("partial state left behind")
	}
	s.Data().SyncUpdates()
	if s.Users() != 0 {
		t.Fatalf("users = %d", s.Users())
	}
}

func TestAttachFailsCleanlyWhenHSSRejects(t *testing.T) {
	fh := &failingHandler{mode: "reject"}
	s := NewSlice(SliceConfig{ID: 1, UserHint: 16})
	s.Control().SetProxy(NewProxy(fh, nil))
	if _, err := s.Control().Attach(AttachSpec{IMSI: 8}); err != ErrBackendFail {
		t.Fatalf("attach: %v", err)
	}
	if s.Control().Lookup(8) != nil {
		t.Fatal("partial state left behind")
	}
}

// A dark PCRF no longer fails the attach: the user proceeds in degraded
// mode on the default bearer, with no PCC rules, queued for Gx repair.
func TestAttachDegradesWhenPCRFDown(t *testing.T) {
	h := hss.New()
	h.ProvisionRange(1, 10, 10e6, 50e6)
	fh := &failingHandler{mode: "error"}
	s := NewSlice(SliceConfig{ID: 1, UserHint: 16})
	s.Control().SetProxy(NewProxy(h, fh))
	if _, err := s.Control().Attach(AttachSpec{IMSI: 3}); err != nil {
		t.Fatalf("attach must degrade, not fail: %v", err)
	}
	ue := s.Control().Lookup(3)
	if ue == nil {
		t.Fatal("degraded user not attached")
	}
	ue.ReadCtrl(func(c *state.ControlState) {
		if !c.Attached || c.BearerCount != 1 || c.Bearers[0].EBI != 5 {
			t.Fatalf("degraded profile: attached=%v bearers=%d", c.Attached, c.BearerCount)
		}
		if c.RuleCount != 0 {
			t.Fatalf("degraded user has %d PCC rules, want 0", c.RuleCount)
		}
	})
	st := s.Control().Stats()
	if st.DegradedAttaches != 1 {
		t.Fatalf("DegradedAttaches = %d", st.DegradedAttaches)
	}
	if s.Control().DegradedBacklog() != 1 {
		t.Fatalf("backlog = %d", s.Control().DegradedBacklog())
	}
}

func TestProxyGxLifecycle(t *testing.T) {
	h := hss.New()
	h.ProvisionRange(1, 10, 10e6, 50e6)
	policy := pcrf.New()
	p := NewProxy(h, policy)
	if _, err := p.EstablishGxSession(2); err != nil {
		t.Fatal(err)
	}
	if policy.ActiveSessions() != 1 {
		t.Fatalf("sessions = %d", policy.ActiveSessions())
	}
	if err := p.ReportUsage(2, 12345); err != nil {
		t.Fatal(err)
	}
	if err := p.TerminateGxSessionBatch([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	if policy.ActiveSessions() != 0 {
		t.Fatalf("sessions after terminate = %d", policy.ActiveSessions())
	}
}
