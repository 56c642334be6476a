package netmodel

import (
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetNetworks = 3000
	cfg.Slash16PerSlash8 = 4
	return cfg
}

func buildSmall(t testing.TB, seed uint64) *Model {
	t.Helper()
	m, err := New(smallConfig(), stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	bad := []Config{
		{},
		func() Config { c := smallConfig(); c.TargetNetworks = 0; return c }(),
		func() Config { c := smallConfig(); c.UncleanAlpha = 0; return c }(),
		func() Config { c := smallConfig(); c.PhishBeta = -1; return c }(),
		func() Config { c := smallConfig(); c.Slash16PerSlash8 = 0; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg, rng); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestModelDeterministic(t *testing.T) {
	a := buildSmall(t, 42)
	b := buildSmall(t, 42)
	if a.NetworkCount() != b.NetworkCount() {
		t.Fatalf("counts differ: %d vs %d", a.NetworkCount(), b.NetworkCount())
	}
	for i := 0; i < a.NetworkCount(); i++ {
		na, nb := a.NetworkAt(i), b.NetworkAt(i)
		if *na != *nb {
			t.Fatalf("network %d differs: %+v vs %+v", i, na, nb)
		}
	}
}

func TestNetworksSortedAndValid(t *testing.T) {
	m := buildSmall(t, 7)
	if m.NetworkCount() < 500 {
		t.Fatalf("suspiciously few networks: %d", m.NetworkCount())
	}
	var prev netaddr.Addr
	for i := 0; i < m.NetworkCount(); i++ {
		n := m.NetworkAt(i)
		if i > 0 && n.Base <= prev {
			t.Fatalf("networks not strictly sorted at %d", i)
		}
		prev = n.Base
		if n.Base.Mask(24) != n.Base {
			t.Errorf("base %v not /24-aligned", n.Base)
		}
		if n.Hosts < 1 || n.Hosts > 254 {
			t.Errorf("host count %d out of range", n.Hosts)
		}
		if n.Unclean < 0 || n.Unclean > 1 || n.PhishUnclean < 0 || n.PhishUnclean > 1 {
			t.Errorf("uncleanliness out of [0,1]: %+v", n)
		}
		if netaddr.IsReserved(n.Base) {
			t.Errorf("network %v in reserved space", n.Base)
		}
		if m.InObserved(n.Base) {
			t.Errorf("network %v inside the observed network", n.Base)
		}
		if !netaddr.IsPopulatedSlash8(n.Base) {
			t.Errorf("network %v in unallocated /8", n.Base)
		}
		// Host addresses stay inside the /24.
		first, last := n.Host(0), n.Host(n.Hosts-1)
		if first.Mask(24) != n.Base || last.Mask(24) != n.Base {
			t.Errorf("hosts escape the /24: %v %v", first, last)
		}
		if uint32(first)&0xff == 0 {
			t.Errorf("host at network address: %v", first)
		}
	}
}

func TestHostPanicsOutOfRange(t *testing.T) {
	m := buildSmall(t, 7)
	n := m.NetworkAt(0)
	for _, i := range []int{-1, n.Hosts} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Host(%d) did not panic", i)
				}
			}()
			n.Host(i)
		}()
	}
}

func TestNetworkContains(t *testing.T) {
	m := buildSmall(t, 7)
	n := m.NetworkAt(0)
	if !n.Contains(n.Host(0)) || !n.Contains(n.Host(n.Hosts-1)) {
		t.Error("network should contain its own hosts")
	}
	if n.Contains(n.Base+255) && n.Hosts < 254 {
		// .255 is active only if the host range reaches it; with <254
		// hosts starting at >=1 it can still reach 255, so only check
		// an address in a different /24.
		t.Log("broadcast-edge host active (allowed)")
	}
	other := n.Base + netaddr.Addr(1<<8) // next /24
	if n.Contains(other) {
		t.Error("network must not contain addresses of the next /24")
	}
}

func TestFindNetwork(t *testing.T) {
	m := buildSmall(t, 9)
	n := m.NetworkAt(m.NetworkCount() / 2)
	got, ok := m.FindNetwork(n.Host(0))
	if !ok || got.Base != n.Base {
		t.Fatalf("FindNetwork(%v) = %v, %v", n.Host(0), got, ok)
	}
	if _, ok := m.FindNetwork(netaddr.MustParseAddr("10.0.0.1")); ok {
		t.Error("found a network in RFC1918 space")
	}
}

func TestSampleAddrActive(t *testing.T) {
	m := buildSmall(t, 11)
	rng := stats.NewRNG(12)
	for i := 0; i < 2000; i++ {
		a := m.SampleAddr(rng)
		n, ok := m.FindNetwork(a)
		if !ok {
			t.Fatalf("sampled address %v not in any network", a)
		}
		if !n.Contains(a) {
			t.Fatalf("sampled address %v outside active host range of %v", a, n.Block())
		}
	}
}

func TestSampleAddrSet(t *testing.T) {
	m := buildSmall(t, 13)
	rng := stats.NewRNG(14)
	s := m.SampleAddrSet(5000, rng)
	if s.Len() != 5000 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Clustered structure: far fewer /16 blocks than a uniform draw
	// would produce.
	if c := s.BlockCount(16); c > 2500 {
		t.Errorf("sample spans %d /16s; expected clustering", c)
	}
}

// sampleAddrSetMap is the control draw SampleAddrSet replaced: dedup
// through a map, then sort in Build. It stays here as the oracle the
// bitmap draw must match.
func sampleAddrSetMap(m *Model, size int, rng *stats.RNG) ipset.Set {
	b := ipset.NewBuilder(size)
	seen := make(map[netaddr.Addr]struct{}, size)
	for len(seen) < size {
		a := m.SampleAddr(rng)
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			b.Add(a)
		}
	}
	return b.Build()
}

// TestSampleAddrSetMatchesMapOracle pins the bitmap draw to the map
// draw: the same set, and the RNG left in the same state, since callers
// keep drawing from it afterwards. size == TotalHosts is the full
// population, where most draws are duplicates.
func TestSampleAddrSetMatchesMapOracle(t *testing.T) {
	cfg := smallConfig()
	cfg.TargetNetworks, cfg.Slash16PerSlash8 = 400, 1
	for _, seed := range []uint64{3, 29, 20071024} {
		m, err := New(cfg, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		total := m.TotalHosts()
		for _, size := range []int{0, 1, 2, 1000, total / 3, total - 1, total} {
			got, want := stats.NewRNG(seed+uint64(size)), stats.NewRNG(seed+uint64(size))
			gs, ws := m.SampleAddrSet(size, got), sampleAddrSetMap(m, size, want)
			if gs.Len() != size || !gs.Equal(ws) {
				t.Fatalf("seed %d size %d: bitmap draw has %d addrs, map draw %d, equal=%v",
					seed, size, gs.Len(), ws.Len(), gs.Equal(ws))
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d size %d: RNG diverged after the draw: next %#x, want %#x", seed, size, g, w)
			}
		}
	}
}

func TestSampleAddrSetPanicsOverPopulation(t *testing.T) {
	m := buildSmall(t, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("drawing more than the population did not panic")
		}
	}()
	m.SampleAddrSet(m.TotalHosts()+1, stats.NewRNG(1))
}

func TestSampleClusteredVsNaive(t *testing.T) {
	// The heart of Figure 2: the model's empirical population must be
	// denser (fewer blocks) than the naive uniform-over-/8s draw.
	m := buildSmall(t, 15)
	rng := stats.NewRNG(16)
	size := 4000
	emp := m.SampleAddrSet(size, rng)
	naive := NaiveSample(size, rng)
	if naive.Len() != size {
		t.Fatalf("naive size = %d", naive.Len())
	}
	for _, n := range []int{16, 20, 24} {
		if emp.BlockCount(n) >= naive.BlockCount(n) {
			t.Errorf("empirical not denser than naive at /%d: %d >= %d",
				n, emp.BlockCount(n), naive.BlockCount(n))
		}
	}
}

func TestNaiveSampleOnlyPopulated(t *testing.T) {
	rng := stats.NewRNG(17)
	s := NaiveSample(2000, rng)
	bad := 0
	s.Each(func(a netaddr.Addr) bool {
		if !netaddr.IsPopulatedSlash8(a) || netaddr.IsReserved(a) {
			bad++
		}
		return true
	})
	if bad > 0 {
		t.Fatalf("%d naive-sample addresses outside populated space", bad)
	}
}

func TestUncleanlinessClusters(t *testing.T) {
	// /24s inside the same /16 must have correlated uncleanliness:
	// the between-/16 variance should dominate a shuffled baseline.
	m := buildSmall(t, 19)
	by16 := make(map[netaddr.Addr][]float64)
	for i := 0; i < m.NetworkCount(); i++ {
		n := m.NetworkAt(i)
		by16[n.Base.Mask(16)] = append(by16[n.Base.Mask(16)], n.Unclean)
	}
	var withinVar, total, groups float64
	var all []float64
	for _, vals := range by16 {
		if len(vals) < 2 {
			continue
		}
		withinVar += varOf(vals)
		groups++
		all = append(all, vals...)
	}
	if groups == 0 {
		t.Skip("no multi-/24 /16s generated")
	}
	total = varOf(all)
	if withinVar/groups >= total {
		t.Errorf("within-/16 variance %.4f not below overall %.4f; uncleanliness not clustered",
			withinVar/groups, total)
	}
}

func varOf(vals []float64) float64 {
	m := stats.Mean(vals)
	ss := 0.0
	for _, v := range vals {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(vals))
}

func TestProfileString(t *testing.T) {
	if Residential.String() != "residential" || Datacenter.String() != "datacenter" {
		t.Error("profile names wrong")
	}
	if Profile(99).String() != "unknown" {
		t.Error("out-of-range profile name")
	}
}

func TestTotalHostsPositive(t *testing.T) {
	m := buildSmall(t, 21)
	if m.TotalHosts() < m.NetworkCount() {
		t.Fatalf("TotalHosts %d < NetworkCount %d", m.TotalHosts(), m.NetworkCount())
	}
}

// BenchmarkSampleAddrSet is the control draw at a quarter of the
// population, where the dedup structure sees many repeated draws.
func BenchmarkSampleAddrSet(b *testing.B) {
	m := buildSmall(b, 13)
	size := m.TotalHosts() / 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := m.SampleAddrSet(size, stats.NewRNG(uint64(i))); s.Len() != size {
			b.Fatalf("drew %d addrs, want %d", s.Len(), size)
		}
	}
}
