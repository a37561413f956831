package gateway

import (
	"crypto/subtle"
	"net/http"
	"strings"
	"time"
)

// Tenant is one resolved identity: the config entry plus its effective
// quota and rate. The gateway passes it to every authenticated handler.
type Tenant struct {
	ID      string
	Quota   Quota
	Rate    Rate
	token   string
	expires time.Time // zero = never
}

// tenantSet is one immutable snapshot of the tenant table. Reloads swap
// the whole snapshot atomically, so in-flight requests finish against
// the table they started with and new requests see the new one — no
// locks on the hot path, no dropped sessions.
type tenantSet struct {
	tenants []*Tenant
}

func newTenantSet(cfg *Config) *tenantSet {
	ts := &tenantSet{}
	for _, tc := range cfg.Tenants {
		t := &Tenant{
			ID:    tc.ID,
			Quota: cfg.QuotaFor(tc),
			Rate:  cfg.RateFor(tc),
			token: tc.Token,
		}
		if tc.Expires != "" {
			// validated by LoadConfig; a zero time on error means "never",
			// so validation is the only gate.
			t.expires, _ = time.Parse(time.RFC3339, tc.Expires)
		}
		ts.tenants = append(ts.tenants, t)
	}
	return ts
}

// authError describes one failed authentication.
type authError struct {
	status int
	msg    string
}

// resolve matches a bearer token against every tenant with a
// constant-time comparison per candidate, so response timing leaks
// nothing about how much of a token matched.
func (ts *tenantSet) resolve(token string, now time.Time) (*Tenant, *authError) {
	var match *Tenant
	for _, t := range ts.tenants {
		if subtle.ConstantTimeCompare([]byte(token), []byte(t.token)) == 1 && match == nil {
			match = t
		}
	}
	if match == nil {
		return nil, &authError{http.StatusUnauthorized, "unknown token"}
	}
	if !match.expires.IsZero() && now.After(match.expires) {
		return nil, &authError{http.StatusUnauthorized, "token expired"}
	}
	return match, nil
}

// bearerToken extracts the token from an Authorization: Bearer header.
func bearerToken(r *http.Request) (string, *authError) {
	h := r.Header.Get("Authorization")
	if h == "" {
		return "", &authError{http.StatusUnauthorized, "missing Authorization header"}
	}
	scheme, token, ok := strings.Cut(h, " ")
	if !ok || !strings.EqualFold(scheme, "Bearer") || strings.TrimSpace(token) == "" {
		return "", &authError{http.StatusUnauthorized, "want Authorization: Bearer <token>"}
	}
	return strings.TrimSpace(token), nil
}

// authenticate resolves the request's bearer token to a tenant, or
// writes the 401 and returns nil. Every mutating route shares it.
func (g *Gateway) authenticate(w http.ResponseWriter, r *http.Request) *Tenant {
	token, aerr := bearerToken(r)
	var tenant *Tenant
	if aerr == nil {
		tenant, aerr = g.tenants.Load().resolve(token, time.Now())
	}
	if aerr != nil {
		w.Header().Set("WWW-Authenticate", `Bearer realm="gem5art"`)
		writeJSON(w, aerr.status, map[string]string{"error": aerr.msg})
		return nil
	}
	return tenant
}
