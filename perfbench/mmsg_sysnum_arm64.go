//go:build linux && arm64

package main

// recvmmsg/sendmmsg syscall numbers for linux/arm64.
const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
)

const (
	sysTimerfdCreate  = 85
	sysTimerfdSettime = 86
)
