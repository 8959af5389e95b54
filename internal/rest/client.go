package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"xdmodfed/internal/auth"
	"xdmodfed/internal/core"
	"xdmodfed/internal/obs"
)

// mClientRetries counts request attempts the client retried after a
// 429 shed.
var mClientRetries = obs.Default.Counter("xdmodfed_rest_client_retries_total",
	"REST client attempts retried after a 429 load-shed response.")

// Client is a typed HTTP client for the XDMoD REST API — what
// downstream tooling (report schedulers, loose-federation shippers,
// dashboards) programs against. When the server sheds a request
// (429), the client honors its Retry-After and retries a bounded
// number of times with jittered delays, so well-behaved tooling backs
// off exactly as fast as the front door asks it to.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	token   string

	// MaxAttempts bounds tries per request including the first;
	// 0 uses DefaultMaxAttempts, 1 disables retries.
	MaxAttempts int
	// MaxRetryDelay caps a single Retry-After wait so a hostile or
	// confused server cannot park the client for minutes; 0 uses
	// DefaultMaxRetryDelay.
	MaxRetryDelay time.Duration
	// sleep is swappable for tests.
	sleep func(time.Duration)
}

// Client retry defaults.
const (
	DefaultMaxAttempts   = 3
	DefaultMaxRetryDelay = 10 * time.Second
)

// NewClient creates a client for the instance at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient}
}

// Login signs in with a local password and stores the session token.
func (c *Client) Login(username, password string) error {
	body, _ := json.Marshal(loginRequest{Username: username, Password: password})
	var resp loginResponse
	if err := c.do("POST", "/api/auth/login", bytes.NewReader(body), &resp); err != nil {
		return err
	}
	c.token = resp.Token
	return nil
}

// LoginSSO signs in with an SSO assertion.
func (c *Client) LoginSSO(assertion auth.Assertion) error {
	body, _ := json.Marshal(assertion)
	var resp loginResponse
	if err := c.do("POST", "/api/auth/sso", bytes.NewReader(body), &resp); err != nil {
		return err
	}
	c.token = resp.Token
	return nil
}

// Chart runs a chart query; params mirror the /api/chart query string
// (metric, group_by, period, start, end, top, filter.<dim>).
func (c *Client) Chart(realm string, params map[string]string) (ChartResult, error) {
	q := url.Values{"realm": {realm}}
	for k, v := range params {
		q.Set(k, v)
	}
	var resp chartResponse
	if err := c.do("GET", "/api/chart?"+q.Encode(), nil, &resp); err != nil {
		return ChartResult{}, err
	}
	return ChartResult(resp), nil
}

// ChartResult is the decoded chart payload.
type ChartResult chartResponse

// JobDetail fetches the Job Viewer document for one job.
func (c *Client) JobDetail(resource string, jobID int64) (*core.JobDetail, error) {
	var detail core.JobDetail
	path := fmt.Sprintf("/api/jobs/%s/%d", url.PathEscape(resource), jobID)
	if err := c.do("GET", path, nil, &detail); err != nil {
		return nil, err
	}
	return &detail, nil
}

// FederationStatus fetches a hub's federation status.
func (c *Client) FederationStatus() (core.Status, error) {
	var resp federationStatusResponse
	if err := c.do("GET", "/api/federation/status", nil, &resp); err != nil {
		return core.Status{}, err
	}
	st := core.Status{Hub: resp.Hub, Version: resp.Version, Dirty: resp.Dirty, DirtyRealms: resp.DirtyRealms}
	for _, m := range resp.Members {
		st.Members = append(st.Members, core.Member{
			Name: m.Name, Position: m.Position, Batches: m.Batches, Events: m.Events,
			Failures: m.Failures, LastError: m.LastError,
		})
	}
	return st, nil
}

// RegisterMember registers a federation member (manager role).
func (c *Client) RegisterMember(name string) error {
	body, _ := json.Marshal(addMemberRequest{Name: name})
	return c.do("POST", "/api/federation/members", bytes.NewReader(body), nil)
}

// UploadLooseDump ships a loose-federation dump for an instance to the
// hub (manager role) — the "ship" half of dump/ship/load.
func (c *Client) UploadLooseDump(instance string, dump io.Reader) error {
	path := "/api/federation/loose/" + url.PathEscape(instance)
	return c.do("POST", path, dump, nil)
}

// do executes one request, decoding a JSON body into out when
// non-nil. The body is buffered once so a shed attempt (429) can be
// replayed after honoring the server's Retry-After.
func (c *Client) do(method, path string, body io.Reader, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = io.ReadAll(body); err != nil {
			return err
		}
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	sleep := c.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 1; ; attempt++ {
		retryAfter, retryable, err := c.doOnce(method, path, payload, out)
		if err == nil || !retryable || attempt >= attempts {
			return err
		}
		// Only when another attempt follows: the last shed returns at
		// once.
		sleep(c.retryDelay(retryAfter))
		mClientRetries.Inc()
	}
}

// doOnce performs one HTTP round trip. On a 429 it reports
// retryable=true with the server's Retry-After header; every other
// failure is terminal.
func (c *Client) doOnce(method, path string, payload []byte, out any) (retryAfter string, retryable bool, err error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return "", false, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get("Retry-After"), true, fmt.Errorf("rest: %s %s: status %d (shed)", method, path, resp.StatusCode)
	}
	if resp.StatusCode >= 400 {
		var e errorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return "", false, fmt.Errorf("rest: %s %s: %s (status %d)", method, path, e.Error, resp.StatusCode)
		}
		return "", false, fmt.Errorf("rest: %s %s: status %d", method, path, resp.StatusCode)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return "", false, nil
	}
	return "", false, json.NewDecoder(resp.Body).Decode(out)
}

// retryDelay is the wait for the server's Retry-After hint — capped,
// then spread uniformly over [d/2, d] (the replication layer's jitter
// shape) so a fleet of shed clients does not return in lockstep.
func (c *Client) retryDelay(header string) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(header); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if cap := c.MaxRetryDelay; cap <= 0 {
		if d > DefaultMaxRetryDelay {
			d = DefaultMaxRetryDelay
		}
	} else if d > cap {
		d = cap
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(d-half)+1))
}
