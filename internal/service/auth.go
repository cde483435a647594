package service

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// TenantConfig is one tenant of a multi-tenant daemon: an identity, its
// bearer token, and the quotas bounding what it may ask of the shared
// pool (cc-backend's JWT-per-user API tokens are the model; this is the
// static-file equivalent). Zero quota fields mean unlimited — quotas
// are opt-in per tenant, not defaults.
type TenantConfig struct {
	// Name is the tenant identity runs are accounted to.
	Name string `json:"name"`
	// Token is the bearer token presented in the Authorization header.
	Token string `json:"token"`
	// MaxQueued caps the tenant's live (queued + running) runs; further
	// fresh submissions get 429 until one finishes. Cache hits never
	// count — dedupe into an existing run costs the pool nothing.
	MaxQueued int `json:"max_queued,omitempty"`
	// RatePerMin caps submissions per minute (token bucket); beyond it
	// submissions get 429 with a Retry-After.
	RatePerMin float64 `json:"rate_per_min,omitempty"`
	// Burst is the bucket size (default: RatePerMin rounded up, at
	// least 1) — how many submissions may arrive back to back before
	// the rate applies.
	Burst int `json:"burst,omitempty"`
	// Admin marks operators: they may cancel any tenant's runs.
	Admin bool `json:"admin,omitempty"`
}

// tokensFile is the JSON schema of a -tokens-file.
type tokensFile struct {
	Tenants []TenantConfig `json:"tenants"`
}

// LoadTokens reads a tenant/token file:
//
//	{"tenants": [
//	  {"name": "alice", "token": "s3cret", "max_queued": 4, "rate_per_min": 120},
//	  {"name": "ops",   "token": "0p5",    "admin": true}
//	]}
func LoadTokens(path string) ([]TenantConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tf tokensFile
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tf.Tenants, nil
}

// tenantState is one tenant's live accounting: its config plus the
// submission token bucket.
type tenantState struct {
	cfg    TenantConfig
	tokens float64
	last   time.Time
}

// Auth authenticates bearer tokens and enforces per-tenant submission
// rate limits. A nil *Auth means the daemon runs open (no
// authentication, no quotas) — the single-user default.
type Auth struct {
	// now is the clock; tests inject a fake.
	now func() time.Time

	mu      sync.Mutex
	byToken map[string]*tenantState
	byName  map[string]*tenantState
}

// NewAuth builds the authenticator, rejecting duplicate tokens or
// names and empty fields — a tokens file that silently merged two
// tenants would mis-account every run.
func NewAuth(tenants []TenantConfig) (*Auth, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("service: tokens file names no tenants")
	}
	a := &Auth{
		now:     time.Now,
		byToken: map[string]*tenantState{},
		byName:  map[string]*tenantState{},
	}
	for i, tc := range tenants {
		if tc.Name == "" || tc.Token == "" {
			return nil, fmt.Errorf("service: tenant %d needs both name and token", i)
		}
		if tc.MaxQueued < 0 || tc.RatePerMin < 0 || tc.Burst < 0 {
			return nil, fmt.Errorf("service: tenant %q has a negative quota", tc.Name)
		}
		if _, dup := a.byName[tc.Name]; dup {
			return nil, fmt.Errorf("service: duplicate tenant name %q", tc.Name)
		}
		if _, dup := a.byToken[tc.Token]; dup {
			return nil, fmt.Errorf("service: two tenants share one token")
		}
		st := &tenantState{cfg: tc, tokens: float64(burstOf(tc))}
		a.byName[tc.Name] = st
		a.byToken[tc.Token] = st
	}
	return a, nil
}

func burstOf(tc TenantConfig) int {
	if tc.Burst > 0 {
		return tc.Burst
	}
	if b := int(math.Ceil(tc.RatePerMin)); b > 0 {
		return b
	}
	return 1
}

// Authenticate resolves an Authorization header ("Bearer <token>") to
// its tenant. Missing, malformed and unknown tokens are all the same
// 401 — the error never confirms whether a token exists.
func (a *Auth) Authenticate(authorization string) (TenantConfig, error) {
	unauthorized := &Error{Status: 401, Msg: "service: missing or invalid bearer token"}
	scheme, token, ok := strings.Cut(authorization, " ")
	if !ok || !strings.EqualFold(strings.TrimSpace(scheme), "Bearer") {
		return TenantConfig{}, unauthorized
	}
	token = strings.TrimSpace(token)
	a.mu.Lock()
	defer a.mu.Unlock()
	// The map lookup short-circuits on length/content, so equalize the
	// comparison cost for present tokens at least; the token space is
	// high-entropy secrets, not passwords, and the file is operator
	// controlled.
	st, ok := a.byToken[token]
	if !ok || subtle.ConstantTimeCompare([]byte(st.cfg.Token), []byte(token)) != 1 {
		return TenantConfig{}, unauthorized
	}
	return st.cfg, nil
}

// AllowSubmit charges one submission against the tenant's rate bucket.
// When the bucket is empty it returns false and how long until the next
// token accrues — the Retry-After the 429 carries. Tenants without a
// configured rate always pass.
func (a *Auth) AllowSubmit(name string) (time.Duration, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.byName[name]
	if !ok || st.cfg.RatePerMin <= 0 {
		return 0, true
	}
	now := a.now()
	perSec := st.cfg.RatePerMin / 60
	if !st.last.IsZero() {
		st.tokens += now.Sub(st.last).Seconds() * perSec
	}
	st.last = now
	if burst := float64(burstOf(st.cfg)); st.tokens > burst {
		st.tokens = burst
	}
	if st.tokens >= 1 {
		st.tokens--
		return 0, true
	}
	wait := time.Duration((1 - st.tokens) / perSec * float64(time.Second))
	return wait, false
}

// owns is the one ownership rule, for reads and writes of runs and
// twins alike: open daemons, admins, trusted in-process callers (empty
// tenant name) and the owner pass. Everyone else must be answered with
// the resource's unknown-id 404 (errUnknownRun / errUnknownTwin) — a
// 403 would confirm the id is taken, handing a tenant walking the
// sequential id space an existence oracle.
func owns(auth *Auth, tenant TenantConfig, owner string) bool {
	return auth == nil || tenant.Admin || tenant.Name == "" || tenant.Name == owner
}

// admit is the admission gate every submission — run or twin, daemon or
// gateway — crosses before it touches a queue: the tenant's rate limit
// (429 with Retry-After), then spec validation (400).
func admit[S interface{ Validate() error }](auth *Auth, tenant TenantConfig, spec S) *Error {
	if auth != nil && tenant.Name != "" {
		if wait, ok := auth.AllowSubmit(tenant.Name); !ok {
			return &Error{
				Status:     429,
				Msg:        fmt.Sprintf("service: tenant %s over submission rate", tenant.Name),
				RetryAfter: wait,
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return &Error{Status: 400, Msg: err.Error()}
	}
	return nil
}

// admitRun is admit for a run spec, which is then normalized and
// content-addressed: the hash is the result-cache key.
func admitRun(auth *Auth, tenant TenantConfig, spec sim.RunSpec) (norm sim.RunSpec, hash string, apiErr *Error) {
	if apiErr := admit(auth, tenant, spec); apiErr != nil {
		return sim.RunSpec{}, "", apiErr
	}
	norm = spec.Normalize()
	hash, err := sim.SpecHash(norm)
	if err != nil {
		return sim.RunSpec{}, "", &Error{Status: 400, Msg: err.Error()}
	}
	return norm, hash, nil
}

// overQuota bills a fresh execution (never a cache hit) against the
// tenant's MaxQueued. live counts the tenant's non-terminal runs and is
// only called when a quota applies.
func overQuota(auth *Auth, tenant TenantConfig, live func() int) *Error {
	if auth == nil || tenant.Name == "" || tenant.MaxQueued <= 0 {
		return nil
	}
	n := live()
	if n < tenant.MaxQueued {
		return nil
	}
	return &Error{
		Status:     429,
		Msg:        fmt.Sprintf("service: tenant %s has %d live runs (quota %d)", tenant.Name, n, tenant.MaxQueued),
		RetryAfter: time.Second,
	}
}

// errDraining refuses intake ("submissions", "twins") during Shutdown.
func errDraining(what string) *Error {
	return &Error{Status: 503, Msg: "service: draining, not accepting " + what}
}

// errEnqueue maps a refused Scheduler.Enqueue to its 503.
func errEnqueue(err error, depth int) *Error {
	if errors.Is(err, ErrQueueFull) {
		return &Error{Status: 503, Msg: fmt.Sprintf("service: queue full (%d pending)", depth)}
	}
	return &Error{Status: 503, Msg: err.Error()}
}
