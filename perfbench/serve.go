package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pdlxml"
	"repro/internal/predict"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/server"
)

// reqHeader carries a traced request's id to the server middleware.
const reqHeader = "X-Perfbench-Req"

// Request mix, in percent: PU query, predict, observe, PUT re-upload.
const (
	mixQuery   = 60
	mixPredict = 25
	mixObserve = 10
)

// zipfExponent shapes the popularity of the query keys.
const zipfExponent = 0.6

var (
	serveCodelets = []string{"dgemm", "potrf", "stencil"}
	serveSizes    = []float64{1e6, 4e6, 1.6e7}
)

// servePlatform is one generated platform with its two XML variants. The
// variants differ only in the host's CORES value, so every PUT changes the
// ETag (and drops the platform's cached queries) but no filter's result.
type servePlatform struct {
	name  string
	xml   [2][]byte
	flips atomic.Int64
}

// filterKey is one (platform, filter) pair of the query key space.
type filterKey struct {
	platform int
	values   url.Values
	filters  *query.Filters
	count    int    // expected result size, from Registry.Query in set-up
	rank     uint64 // seeded shuffle position
}

// serveOp is one generated request.
type serveOp struct {
	kind     string // "query", "predict", "observe", "put"
	platform int
	key      int // filterKey index, for queries
	codelet  string
	size     float64
}

// serveBench drives an in-process pdlserved (server.New(...).Handler()) on
// a loopback listener; the registry and tuner behind it are built in
// set-up.
type serveBench struct {
	seed      uint64
	platforms []*servePlatform
	keys      []filterKey
	keyCDF    []float64 // Zipf popularity over keys
	srv       *http.Server
	serving   sync.WaitGroup
	base      string
	client    *http.Client
	batches   atomic.Int64

	tr       atomic.Pointer[tracer]
	mu       sync.Mutex
	handled  map[int64]float64 // traced request id → handler ms
	handleUs map[string][]float64
}

func setupServeRegistry(seed int64) (bench, error) {
	s := &serveBench{seed: uint64(seed), handled: map[int64]float64{}, handleUs: map[string][]float64{}}
	reg, tuner, err := s.generate()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := server.New(server.Config{Registry: reg, Tuner: tuner}).Handler()
	s.srv = &http.Server{Handler: s.middleware(h)}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		s.srv.Serve(ln) // returns once close shuts the server
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}}
	return s, nil
}

// generate builds the seeded platforms, the filter key space with its
// popularity, and a registry and tuner holding the platforms and warm
// models. The expected count of every key comes from Registry.Query.
func (s *serveBench) generate() (*registry.Registry, *predict.Tuner, error) {
	reg, tuner := registry.New(), predict.NewTuner()
	h := s.hasher(streamModels)
	s.platforms, s.keys = nil, nil
	for p := 0; p < 6; p++ {
		pus := 16 << uint(p%5) // 16 … 256 PUs
		sp := &servePlatform{name: fmt.Sprintf("gen%d", p)}
		for v := 0; v < 2; v++ {
			pl, err := genPlatform(sp.name, pus, v, s.hasher(streamPlatforms|uint64(p)<<32))
			if err != nil {
				return nil, nil, err
			}
			if sp.xml[v], err = pdlxml.Marshal(pl); err != nil {
				return nil, nil, err
			}
		}
		e, _, err := reg.Put(sp.name, sp.xml[0])
		if err != nil {
			return nil, nil, fmt.Errorf("platform %s: %w", sp.name, err)
		}
		for _, cl := range serveCodelets {
			for _, sz := range serveSizes {
				if err := tuner.Observe(e.Platform, cl, sz, sz/(1e9*(1+h.unit()))); err != nil {
					return nil, nil, err
				}
			}
		}
		s.platforms = append(s.platforms, sp)
		for _, kind := range []string{"", "worker", "master", "hybrid"} {
			for _, arch := range []string{"", "x86", "gpu", "spe", "ppc"} {
				for _, prop := range []string{"", core.PropVendor, core.PropVendor + ":Nvidia", core.PropMemSize} {
					for _, limit := range []string{"", "4"} {
						v := url.Values{}
						for k, x := range map[string]string{"kind": kind, "arch": arch, "prop": prop, "limit": limit} {
							if x != "" {
								v.Set(k, x)
							}
						}
						f, err := query.ParseFilters(v)
						if err != nil {
							return nil, nil, err
						}
						s.keys = append(s.keys, filterKey{platform: p, values: v, filters: f})
					}
				}
			}
		}
	}
	// Expected counts hold for both variants: check, then restore variant 0.
	for v := 1; v >= 0; v-- {
		for _, sp := range s.platforms {
			if _, _, err := reg.Put(sp.name, sp.xml[v]); err != nil {
				return nil, nil, err
			}
		}
		for i := range s.keys {
			k := &s.keys[i]
			views, _, err := reg.Query(s.platforms[k.platform].name, k.filters)
			if err != nil {
				return nil, nil, err
			}
			if v == 1 {
				k.count = len(views)
			} else if k.count != len(views) {
				return nil, nil, fmt.Errorf("variants of %s disagree on %s", s.platforms[k.platform].name, k.values.Encode())
			}
		}
	}
	// Popularity: a fixed interleaving of all keys gives each rank its
	// platform and result size; the seed then shuffles keys only among those
	// of the same platform and result size. Which filters are hot changes
	// with the seed, but the cost of the mix does not.
	for i := range s.keys {
		s.keys[i].rank = mix64(0x5eed, uint64(i))
	}
	sort.Slice(s.keys, func(a, b int) bool { return s.keys[a].rank < s.keys[b].rank })
	classes := map[[2]int][]int{}
	for i, k := range s.keys {
		c := [2]int{k.platform, k.count}
		classes[c] = append(classes[c], i)
	}
	shuffled := make([]filterKey, len(s.keys))
	for c, at := range classes {
		order := s.hasher(streamPopularity | uint64(c[0])<<40 | uint64(c[1])<<20).perm(len(at))
		for j, pos := range at {
			shuffled[pos] = s.keys[at[order[j]]]
		}
	}
	s.keys = shuffled
	// Zipf popularity by rank; the mild exponent spreads traffic over many
	// keys while the hottest still fit the 256-entry cache.
	s.keyCDF = make([]float64, len(s.keys))
	total := 0.0
	for i := range s.keys {
		total += 1 / math.Pow(float64(i+1), zipfExponent)
		s.keyCDF[i] = total
	}
	for i := range s.keyCDF {
		s.keyCDF[i] /= total
	}
	return reg, tuner, nil
}

// genPlatform builds a seeded platform of pus processing units: an x86
// host, a Cell-style hybrid with SPE workers, and GPU and x86 workers with
// vendor and memory properties. The seed permutes which worker gets which
// attribute, but every platform holds the same multiset of attributes, so
// each filter's result size, and the cost of the mix, is the same for every
// seed. variant only changes the host's CORES.
func genPlatform(name string, pus, variant int, h *hasher) (*core.Platform, error) {
	b := core.NewBuilder(name).Master("host", core.Arch("x86"), core.WithProp(core.PropCores, strconv.Itoa(8+8*variant)))
	spes := pus / 4
	b.Hybrid("cell", core.Arch("ppc"))
	for i := 0; i < spes; i++ {
		b.Worker(fmt.Sprintf("spe%d", i), core.Arch("spe"))
	}
	b.End()
	workers := pus - spes - 2
	archOf, vendorOf, memOf := h.perm(workers), h.perm(workers), h.perm(workers)
	vendors := []string{"Nvidia", "AMD", "Intel"}
	for i := 0; i < workers; i++ {
		arch := "gpu"
		if archOf[i] < workers*3/10 {
			arch = "x86"
		}
		b.Worker(fmt.Sprintf("w%d", i), core.Arch(arch),
			core.WithProp(core.PropVendor, vendors[vendorOf[i]%3]),
			core.WithMemory(fmt.Sprintf("m%d", i), int64(1<<20)<<uint(memOf[i]%3)),
			core.InGroups(fmt.Sprintf("g%d", i%4)))
	}
	return b.Build()
}

// hasher yields deterministic uniforms from (seed, stream): the mix of a
// request depends only on its id, whichever sender sends it.
type hasher struct {
	seed, state uint64
}

// The top bits of a stream name what it generates, so no two uses share
// draws; the lower bits index within a use.
const (
	streamModels uint64 = iota << 60
	streamPlatforms
	streamPopularity
	streamRequests
)

func (s *serveBench) hasher(stream uint64) *hasher {
	return &hasher{seed: s.seed, state: stream}
}

// perm returns a seeded permutation of 0..n-1.
func (h *hasher) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(h.unit() * float64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func (h *hasher) unit() float64 {
	h.state++
	return float64(mix64(h.seed, h.state)>>11) / (1 << 53)
}

// mix64 is the splitmix64 finaliser over seed and x.
func mix64(seed, x uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + x*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// op generates request req of the mix.
func (s *serveBench) op(req int64) serveOp {
	h := s.hasher(streamRequests | uint64(req)<<8)
	pick := h.unit() * 100
	key := sort.SearchFloat64s(s.keyCDF, h.unit())
	key = min(key, len(s.keys)-1)
	o := serveOp{platform: s.keys[key].platform, key: key,
		codelet: serveCodelets[int(h.unit()*3)], size: serveSizes[int(h.unit()*3)] * (1 + h.unit())}
	switch {
	case pick < mixQuery:
		o.kind = "query"
	case pick < mixQuery+mixPredict:
		o.kind = "predict"
	case pick < mixQuery+mixPredict+mixObserve:
		o.kind = "observe"
	default:
		o.kind = "put"
	}
	return o
}

// middleware times each traced request inside the server handler.
func (s *serveBench) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		id := r.Header.Get(reqHeader)
		if tr == nil || id == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		next.ServeHTTP(w, r)
		end := tr.now()
		req, _ := strconv.ParseInt(id, 10, 64)
		kind := opOf(r)
		tr.add(span{Group: req, Name: "server." + kind, Start: start, End: end})
		s.mu.Lock()
		s.handled[req] = float64(end-start) / 1e6
		s.handleUs[kind] = append(s.handleUs[kind], float64(end-start)/1e3)
		s.mu.Unlock()
	})
}

func opOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodPut:
		return "put"
	case strings.HasSuffix(r.URL.Path, "/pus"):
		return "query"
	case strings.HasSuffix(r.URL.Path, "/predict"):
		return "predict"
	case strings.HasSuffix(r.URL.Path, "/observe"):
		return "observe"
	}
	return "other"
}

func (s *serveBench) handlerMs(req int64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.handled[req]
	return v, ok
}

// job sends request req and verifies the response: a 2xx status, a query
// count equal to Registry.Query on the same filter, a positive prediction.
func (s *serveBench) job(req int64, tr *tracer) error {
	s.tr.Store(tr)
	o := s.op(req)
	sp := s.platforms[o.platform]
	var hr *http.Request
	var err error
	switch o.kind {
	case "query":
		hr, err = http.NewRequest(http.MethodGet, s.base+"/platforms/"+sp.name+"/pus?"+s.keys[o.key].values.Encode(), nil)
	case "predict":
		q := url.Values{"codelet": {o.codelet}, "size": {strconv.FormatFloat(o.size, 'f', -1, 64)}}
		hr, err = http.NewRequest(http.MethodGet, s.base+"/platforms/"+sp.name+"/predict?"+q.Encode(), nil)
	case "observe":
		body := fmt.Sprintf(`{"codelet":%q,"size":%g,"seconds":%g}`, o.codelet, o.size, o.size/1.5e9)
		hr, err = http.NewRequest(http.MethodPost, s.base+"/platforms/"+sp.name+"/observe", strings.NewReader(body))
	case "put":
		hr, err = http.NewRequest(http.MethodPut, s.base+"/platforms/"+sp.name, bytes.NewReader(sp.xml[sp.flips.Add(1)%2]))
	}
	if err != nil {
		return err
	}
	if tr != nil {
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %.200s", o.kind, sp.name, resp.StatusCode, body)
	}
	switch o.kind {
	case "query":
		if got := jsonNumber(body, "count"); got != float64(s.keys[o.key].count) {
			return fmt.Errorf("query %s?%s: count %v, Registry.Query says %d", sp.name, s.keys[o.key].values.Encode(), got, s.keys[o.key].count)
		}
	case "predict":
		if got := jsonNumber(body, "seconds"); !(got > 0) {
			return fmt.Errorf("predict %s %s: seconds %v", sp.name, o.codelet, got)
		}
	}
	return nil
}

// jsonNumber reads the top-level number field name from a JSON object
// without decoding the rest of it (a query response lists every PU).
func jsonNumber(body []byte, name string) float64 {
	i := bytes.Index(body, []byte(`"`+name+`":`))
	if i < 0 {
		return math.NaN()
	}
	rest := body[i+len(name)+3:]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// batchSize is the number of requests in one serve-registry solve pass.
const batchSize = 400

// pass serves one batch of the mix closed-loop over two connections: each
// sender sends its next request when its previous one is answered.
func (s *serveBench) pass(tr *tracer) (float64, error) {
	base := int64(1)<<40 + s.batches.Add(1)*batchSize
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < batchSize; i = next.Add(1) - 1 {
				if err := s.job(base+i, tr); err != nil {
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// layers reports the server's handler times from the traced HTTP requests,
// then replays the same generated mix through direct registry and tuner
// calls on a fresh copy to time those layers without HTTP.
func (s *serveBench) layers(m metrics) {
	for _, op := range []string{"query", "predict", "observe", "put"} {
		m.set("server.handle_us."+op+".p50", quantile(s.handleUs[op], 0.5), "us")
		m.set("server.handle_us."+op+".p99", quantile(s.handleUs[op], 0.99), "us")
	}
	reg, tuner, err := s.generate()
	if err != nil {
		m.set("registry.put_us", -1, "us")
		return
	}
	var hit, miss, put, pred, obs []float64
	before := reg.CacheStats()
	for req := int64(0); req < 20000; req++ {
		o := s.op(req)
		sp := s.platforms[o.platform]
		e, _ := reg.Get(sp.name)
		t0 := time.Now()
		switch o.kind {
		case "query":
			_, cached, err := reg.Query(sp.name, s.keys[o.key].filters)
			d := float64(time.Since(t0)) / 1e3
			if err == nil && cached {
				hit = append(hit, d)
			} else if err == nil {
				miss = append(miss, d)
			}
		case "predict":
			if _, err := tuner.Predict(e.Platform, o.codelet, o.size); err == nil {
				pred = append(pred, float64(time.Since(t0))/1e3)
			}
		case "observe":
			if err := tuner.Observe(e.Platform, o.codelet, o.size, o.size/1.5e9); err == nil {
				obs = append(obs, float64(time.Since(t0))/1e3)
			}
		case "put":
			if _, _, err := reg.Put(sp.name, sp.xml[sp.flips.Add(1)%2]); err == nil {
				put = append(put, float64(time.Since(t0))/1e3)
			}
		}
	}
	after := reg.CacheStats()
	m.set("registry.query_us.hit", median(hit), "us")
	m.set("registry.query_us.miss", median(miss), "us")
	if n := float64(after.Hits - before.Hits + after.Misses - before.Misses); n > 0 {
		m.set("registry.cache_hit_ratio", float64(after.Hits-before.Hits)/n, "ratio")
	}
	m.set("registry.put_us", median(put), "us")
	m.set("predict.predict_us", median(pred), "us")
	m.set("predict.observe_us", median(obs), "us")
}

func (s *serveBench) close() {
	s.srv.Close()
	s.serving.Wait()
	s.client.CloseIdleConnections()
}
