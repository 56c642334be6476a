//go:build linux && (amd64 || arm64)

package main

import (
	"net"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// batchConn moves a batch of datagrams per syscall with recvmmsg and
// sendmmsg, the way the dnsbl shard loop does, so the load generator and
// the echo baseline pay the same per-packet syscall share as the server
// they measure. The fd stays non-blocking; EAGAIN parks the goroutine in
// the runtime poller, and closing the conn wakes it with net.ErrClosed.
type batchConn struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	bufs [][]byte // one slot per datagram
	lens []int    // bytes used in each slot

	// names holds the peer address of each received datagram, echoed
	// back verbatim when the batch is written with names.
	names    [][syscall.SizeofSockaddrInet6]byte
	nameLens []uint32

	iovs []syscall.Iovec
	hdrs []mmsghdr
}

// mmsghdr mirrors struct mmsghdr on linux/{amd64,arm64}.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// newBatchConn wraps conn with n slots of size bytes each.
func newBatchConn(conn *net.UDPConn, n, size int) (*batchConn, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &batchConn{
		conn:     conn,
		rc:       rc,
		bufs:     make([][]byte, n),
		lens:     make([]int, n),
		names:    make([][syscall.SizeofSockaddrInet6]byte, n),
		nameLens: make([]uint32, n),
		iovs:     make([]syscall.Iovec, n),
		hdrs:     make([]mmsghdr, n),
	}
	arena := make([]byte, n*size)
	for i := range b.bufs {
		b.bufs[i] = arena[i*size : (i+1)*size]
	}
	return b, nil
}

// Read receives up to len(bufs) datagrams, blocking until at least one
// arrives. It records each sender's address for an echoing Write.
func (b *batchConn) Read() (int, error) {
	for i := range b.hdrs {
		b.iovs[i].Base = &b.bufs[i][0]
		b.iovs[i].SetLen(len(b.bufs[i]))
		h := &b.hdrs[i].hdr
		h.Name = &b.names[i][0]
		h.Namelen = uint32(len(b.names[i]))
		h.Iov = &b.iovs[i]
		h.Iovlen = 1
		b.hdrs[i].n = 0
	}
	var n int
	var errno syscall.Errno
	err := b.rc.Read(func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysRecvmmsg, fd, uintptr(unsafe.Pointer(&b.hdrs[0])), uintptr(len(b.hdrs)), 0, 0, 0)
		n, errno = int(r), e
		return errno != syscall.EAGAIN
	})
	if err != nil {
		return 0, err
	}
	if errno == syscall.EINTR {
		return 0, nil
	}
	if errno != 0 {
		return 0, errno
	}
	for i := 0; i < n; i++ {
		b.lens[i] = int(b.hdrs[i].n)
		b.nameLens[i] = b.hdrs[i].hdr.Namelen
	}
	return n, nil
}

// Write sends bufs[:n] (each trimmed to lens[i]). With echo set, slot i
// goes to the address Read recorded for it; otherwise to the connected
// peer. It returns the number of datagrams the kernel accepted; a
// datagram it refuses (full transmit queue, ICMP error) is skipped.
func (b *batchConn) Write(n int, echo bool) (int, error) {
	for i := 0; i < n; i++ {
		b.iovs[i].Base = &b.bufs[i][0]
		b.iovs[i].SetLen(b.lens[i])
		h := &b.hdrs[i].hdr
		h.Name, h.Namelen = nil, 0
		if echo {
			h.Name = &b.names[i][0]
			h.Namelen = b.nameLens[i]
		}
		h.Iov = &b.iovs[i]
		h.Iovlen = 1
		b.hdrs[i].n = 0
	}
	sent, accepted := 0, 0
	for sent < n {
		var m int
		var errno syscall.Errno
		err := b.rc.Write(func(fd uintptr) bool {
			r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&b.hdrs[sent])), uintptr(n-sent), 0, 0, 0)
			m, errno = int(r), e
			return errno != syscall.EAGAIN
		})
		if err != nil {
			return accepted, err
		}
		switch errno {
		case 0:
			sent += m
			accepted += m
		case syscall.EINTR:
		default:
			sent++ // refused datagram: drop it, keep the rest moving
		}
	}
	return accepted, nil
}

// pacer delivers the generator's ticks from a periodic timerfd read
// through the runtime poller.
type pacer struct {
	f   *os.File
	buf [8]byte
}

func newPacer(period time.Duration) (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.Syscall(sysTimerfdCreate, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, errno
	}
	ts := syscall.NsecToTimespec(period.Nanoseconds())
	spec := [2]syscall.Timespec{ts, ts} // interval, first expiry
	if _, _, errno := syscall.Syscall6(sysTimerfdSettime, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, errno
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the timer has expired at least once since the last
// wait.
func (p *pacer) wait() { _, _ = p.f.Read(p.buf[:]) }

func (p *pacer) Close() { p.f.Close() }
