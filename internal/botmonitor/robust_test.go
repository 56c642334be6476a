package botmonitor

import (
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func dialOrSkip(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func deadline() time.Time { return time.Now().Add(3 * time.Second) }

// The monitor parses hostile-controlled IRC traffic; no line may panic
// it.
func TestObserveLineNeverPanics(t *testing.T) {
	m := NewMonitor("#owned")
	f := func(line string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ObserveLine panicked on %q: %v", line, r)
			}
		}()
		m.ObserveLine(line)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

// Structured-looking but hostile lines: every command with adversarial
// params.
func TestObserveHostileStructuredLines(t *testing.T) {
	m := NewMonitor("")
	hostile := []string{
		":a!b@999.999.999.999 JOIN #x",
		":a!b@1.2.3.4 PRIVMSG", // missing params
		": JOIN #x",
		":!@ PRIVMSG #x :" + strings.Repeat("1.2.3.4 ", 500),
		":a!b@1.2.3.4 332",
		":a!b@1.2.3.4 TOPIC",
		":a!b@1.2.3.4 TOPIC #x",
		"JOIN :" + strings.Repeat("#", 1000),
		":" + strings.Repeat("x", 600) + " PRIVMSG #x :hi",
	}
	for _, line := range hostile {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked on %q: %v", line, r)
				}
			}()
			m.ObserveLine(line)
		}()
	}
}

// The server's message handler runs against raw attacker connections.
func TestServerHandleHostileMessages(t *testing.T) {
	// Drive hostile lines through a real session so handler state
	// (registration, channels) is exercised.
	addr, shutdown := startServer(t)
	defer shutdown()
	conn := dialOrSkip(t, addr)
	defer conn.Close()
	payload := "NICK \r\nUSER\r\nJOIN\r\nJOIN :\r\nTOPIC\r\nPRIVMSG\r\nPING\r\nMODE #x +b\r\nNICK a\r\nUSER a 0 * :addr=999.1.1.1\r\nJOIN #x\r\nPRIVMSG #x :ok\r\nQUIT\r\n"
	if _, err := conn.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	// If the server survived, a fresh wellformed session still works.
	conn2 := dialOrSkip(t, addr)
	defer conn2.Close()
	if _, err := conn2.Write([]byte("NICK ok\r\nUSER ok 0 * :x\r\nPING :tok\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	conn2.SetReadDeadline(deadline())
	n, err := conn2.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("server unresponsive after hostile session: %v", err)
	}
}
