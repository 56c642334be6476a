package main

import (
	"bufio"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"unclean/internal/obs"
)

// procSample is a point-in-time reading of the process-wide counters
// the proc layer reports: CPU time, Go heap and GC activity.
type procSample struct {
	at        time.Time
	cpu       time.Duration // user + system, all threads
	gcCycles  uint32
	gcPauseNs uint64
	allocB    uint64 // cumulative bytes allocated on the Go heap
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{
		at:        time.Now(),
		cpu:       cpu,
		gcCycles:  ms.NumGC,
		gcPauseNs: ms.PauseTotalNs,
		allocB:    ms.TotalAlloc,
	}
}

// procDelta is the difference between two samples.
type procDelta struct {
	wall      time.Duration
	cpu       time.Duration
	gcCycles  float64
	gcPauseMs float64
	allocMiB  float64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:      b.at.Sub(a.at),
		cpu:       b.cpu - a.cpu,
		gcCycles:  float64(b.gcCycles - a.gcCycles),
		gcPauseMs: float64(b.gcPauseNs-a.gcPauseNs) / 1e6,
		allocMiB:  float64(b.allocB-a.allocB) / (1 << 20),
	}
}

// readWchar returns the process's wchar counter (bytes handed to
// write(2) and friends), or 0 where /proc/self/io is unavailable.
func readWchar() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// peakRSSMiB returns VmHWM, the resident-set high-water mark, in MiB.
func peakRSSMiB() float64 {
	m, _ := obs.ReadProcMem()
	return float64(m.Peak) / (1 << 20)
}

// resetPeakRSS restarts the VmHWM high-water mark at the current RSS, so
// the next peakRSSMiB covers only what ran since. It reports whether the
// kernel accepted the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// fingerprint describes the machine a run measured, so that results
// from two machines are not compared as if they were one.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	// RmemMax is net.core.rmem_max, the cap on what a socket may ask
	// for as its receive buffer; RcvBuf is what the serve sockets'
	// request for serveRcvBuf actually got, as getsockopt(SO_RCVBUF)
	// reports it (the kernel doubles the granted size for its own
	// bookkeeping). A serve run on a host with another cap loses
	// queries at another load, so its numbers are not comparable.
	RmemMax int `json:"rmem_max"`
	RcvBuf  int `json:"serve_rcvbuf"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/sys/net/core/rmem_max"); err == nil {
		fp.RmemMax, _ = strconv.Atoi(strings.TrimSpace(string(b)))
	}
	if c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err == nil {
		fp.RcvBuf = setRcvBuf(c)
		c.Close()
	}
	return fp
}

// setRcvBuf asks for a serveRcvBuf receive buffer on c and returns the
// size the kernel reports back, which rmem_max caps (0 if unreadable).
func setRcvBuf(c *net.UDPConn) int {
	_ = c.SetReadBuffer(serveRcvBuf)
	rc, err := c.SyscallConn()
	if err != nil {
		return 0
	}
	n := 0
	_ = rc.Control(func(fd uintptr) {
		n, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	})
	return n
}

func runtimeProcs() int { return runtime.GOMAXPROCS(0) }

// udpDrops returns the kernel's drop counter for the IPv4 UDP socket
// bound to port on this host (0 when not found): datagrams discarded
// because the socket's receive queue was full.
func udpDrops(port int) int64 {
	b, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return 0
	}
	want := strings.ToUpper(strconv.FormatInt(int64(port), 16))
	for _, line := range strings.Split(string(b), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 13 {
			continue
		}
		_, p, ok := strings.Cut(f[1], ":")
		if !ok || strings.TrimLeft(p, "0") != want {
			continue
		}
		n, _ := strconv.ParseInt(f[len(f)-1], 10, 64)
		return n
	}
	return 0
}

// readSteal returns the machine-wide steal and total CPU ticks from
// /proc/stat: time the hypervisor ran something else while this
// machine's vCPUs wanted to run.
func readSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
