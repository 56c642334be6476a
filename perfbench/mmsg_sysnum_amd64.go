//go:build linux && amd64

package main

// recvmmsg/sendmmsg syscall numbers for linux/amd64.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)

const (
	sysTimerfdCreate  = 283
	sysTimerfdSettime = 286
)
