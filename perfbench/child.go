package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// drainTimeout is passed to physchedd as -drain-timeout; stop waits this
// long plus stopSlack after SIGTERM before it SIGKILLs the group.
const (
	drainTimeout = 3 * time.Second
	stopSlack    = 2 * time.Second
)

// child is one process the benchmark started, in its own process group.
// Its output goes to a log file (an unread pipe would block a child
// that logs a line per request).
type child struct {
	pid     int
	logPath string
	logFile *os.File
	done    chan struct{} // closed once Wait has reaped the process
	waitErr error

	stopOnce sync.Once
	stopErr  error
}

// reaper owns every child of the run and stops them all on exit.
type reaper struct {
	mu   sync.Mutex
	kids []*child
}

// start launches bin in a new process group with SIGKILL as its parent-
// death signal, so even an exit that skips deferred calls takes it down.
// Pdeathsig fires when the forking OS thread exits; Go keeps threads
// alive for the process lifetime unless a goroutine exits while locked
// to one, which this program never does.
func (r *reaper) start(bin string, args []string, logPath string) (*child, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{pid: cmd.Process.Pid, logPath: logPath, logFile: f, done: make(chan struct{})}
	r.mu.Lock()
	r.kids = append(r.kids, c)
	r.mu.Unlock()
	// Ends when the process exits; stop guarantees that by SIGKILL.
	go func() {
		c.waitErr = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// stopAll stops every child still running and reports the first failure
// to prove one gone.
func (r *reaper) stopAll() error {
	r.mu.Lock()
	kids := append([]*child(nil), r.kids...)
	r.mu.Unlock()
	var first error
	for _, c := range kids {
		if err := c.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// exited reports whether the process has already been reaped.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM to the child's group, waits for the drain, then
// SIGKILLs whatever is left, reaps the child and asserts that no member
// of its group remains. Idempotent.
func (c *child) stop() error {
	c.stopOnce.Do(func() {
		syscall.Kill(-c.pid, syscall.SIGTERM)
		t := time.NewTimer(drainTimeout + stopSlack)
		select {
		case <-c.done:
		case <-t.C:
			syscall.Kill(-c.pid, syscall.SIGKILL)
			<-c.done
		}
		t.Stop()
		// Group members the child may have left behind go too; ESRCH
		// (nothing left) is the expected answer.
		syscall.Kill(-c.pid, syscall.SIGKILL)
		c.logFile.Close()
		c.stopErr = c.assertGone()
	})
	return c.stopErr
}

// assertGone checks, by a /proc scan, that the reaped child left no live
// process in its group. Zombies do not count: an orphaned grandchild
// that has exited waits for init to reap it.
func (c *child) assertGone() error {
	deadline := time.Now().Add(time.Second)
	for {
		alive, err := groupAlive(c.pid)
		if err != nil {
			return err
		}
		if len(alive) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("processes %v of child %d's group are still alive after stop", alive, c.pid)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// groupAlive lists the live (non-zombie) processes in process group pgid.
func groupAlive(pgid int) ([]int, error) {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil, err
	}
	var alive []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		fs, err := procStat(pid)
		if err != nil {
			continue // exited during the scan
		}
		if fs[0] != "Z" && fs[2] == strconv.Itoa(pgid) {
			alive = append(alive, pid)
		}
	}
	return alive, nil
}

// logTail returns the last n lines of the child's log.
func (c *child) logTail(n int) string {
	b, err := os.ReadFile(c.logPath)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// waitHealthy polls probe until it succeeds, the child dies, or the
// deadline passes; the failures include the child's log tail.
func (c *child) waitHealthy(ctx context.Context, probe func(context.Context) error, within time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, within)
	defer cancel()
	for {
		if c.exited() {
			return fmt.Errorf("physchedd exited during start-up (%v); log tail:\n%s", c.waitErr, c.logTail(20))
		}
		pctx, pcancel := context.WithTimeout(ctx, 500*time.Millisecond)
		err := probe(pctx)
		pcancel()
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("physchedd not healthy within %v (%v); log tail:\n%s", within, err, c.logTail(20))
		case <-c.done:
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// freePort reserves a loopback port by binding and releasing it:
// physchedd's -addr :0 would not report the port it bound.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// procStatusKB reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status;
// pid 0 means this process.
func procStatusKB(pid int, field string) (float64, error) {
	p := "self"
	if pid != 0 {
		p = strconv.Itoa(pid)
	}
	b, err := os.ReadFile("/proc/" + p + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			return strconv.ParseFloat(fs[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, p)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procStat returns the fields of /proc/<pid>/stat after the
// parenthesised command name: state, ppid, pgrp, … (field 3 onwards).
func procStat(pid int) ([]string, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return nil, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return nil, errors.New("malformed /proc stat")
	}
	fs := strings.Fields(string(b[i+1:]))
	if len(fs) < 13 {
		return nil, errors.New("short /proc stat")
	}
	return fs, nil
}

// procCPUSeconds returns the user+system CPU seconds (utime and stime,
// fields 14 and 15) /proc/<pid>/stat reports for pid.
func procCPUSeconds(pid int) (float64, error) {
	fs, err := procStat(pid)
	if err != nil {
		return 0, err
	}
	ut, err1 := strconv.ParseFloat(fs[11], 64)
	st, err2 := strconv.ParseFloat(fs[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, int, error) {
	var total int64
	files := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			files++
		}
		return nil
	})
	return total, files, err
}
