package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/hpcobs/gosoma/internal/core"
)

// The fleet under test. The measured configuration is the shipped one:
// somad and somagate built from the tree and started as child processes
// with default flags (rollups on, telemetry on, limiter on). (The tests
// substitute in-process services; see smoke_test.go.)

// fleetSpec is the shape a workload asks for.
type fleetSpec struct {
	somads  int  // 1 = solo, >1 = one sharded cluster
	gateway bool // a somagate in front of member 0
}

type fleet struct {
	addrs   []string // somad RPC addresses, member 0 first
	gateURL string   // http://host:port of somagate, "" without one
	pids    []int    // service processes whose CPU and RSS are charged
	stop    func()   // kills and reaps everything; idempotent
	t0      time.Time
}

// repoRoot walks up from the working directory to the gosoma module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.Contains(string(b), "module github.com/hpcobs/gosoma\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("gosoma module root not found above the working directory")
		}
		dir = parent
	}
}

// buildFleetBinaries compiles somad and somagate from the tree into
// bench/out/bin. It runs before any clock starts.
func buildFleetBinaries(root string) (binDir string, err error) {
	binDir = filepath.Join(root, "bench", "out", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/somad", "./cmd/somagate")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build somad somagate: %v\n%s", err, out)
	}
	return binDir, nil
}

// reapLeftovers finds processes still running a binary of this checkout's
// bench/out/bin — children orphaned by a harness that was killed hard —
// kills them and reports each, so a stale somad is never measured alongside
// the fleet (it would hold ports and steal CPU from the run).
func reapLeftovers(binDir string) []string {
	var reports []string
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil {
			continue
		}
		exe = strings.TrimSuffix(exe, " (deleted)")
		if filepath.Dir(exe) != binDir {
			continue
		}
		if err := syscall.Kill(pid, syscall.SIGKILL); err == nil {
			reports = append(reports, fmt.Sprintf("killed leftover %s (pid %d) from an earlier run", filepath.Base(exe), pid))
		}
	}
	if len(reports) > 0 {
		time.Sleep(100 * time.Millisecond) // let the kernel release their ports
	}
	return reports
}

// Fixed ports keep cluster placement identical from run to run: the
// consistent-hash ring hashes member addresses, so ephemeral ports would
// reshuffle shard ownership (and with it forward_frac and shard_skew) on
// every run. A busy fixed port falls back to an ephemeral one.
const fleetPortBase = 47310

// reservePort binds and releases a port so the child can be told its
// address (and its peers') before exec.
func reservePort(preferred int) (int, error) {
	for _, p := range []int{preferred, 0} {
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
		if err != nil {
			continue
		}
		port := l.Addr().(*net.TCPAddr).Port
		l.Close()
		return port, nil
	}
	return 0, fmt.Errorf("no free port (tried %d and ephemeral)", preferred)
}

// procGroup is one workload's child processes: a single process group,
// killed as a unit on every exit path.
type procGroup struct {
	mu   sync.Mutex
	pgid int
	cmds []*exec.Cmd
	logs []*os.File
	dead bool
}

// liveGroups lets the signal handler and the panic path kill whatever is
// running without threading the fleet through every call.
var (
	liveMu     sync.Mutex
	liveGroups = map[*procGroup]bool{}
)

func killAllGroups() {
	liveMu.Lock()
	gs := make([]*procGroup, 0, len(liveGroups))
	for g := range liveGroups {
		gs = append(gs, g)
	}
	liveMu.Unlock()
	for _, g := range gs {
		g.kill()
	}
}

func (g *procGroup) start(logPath, bin string, args ...string) (*exec.Cmd, *bufio.Scanner, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// One process group per workload, led by the first child; Pdeathsig
	// covers the one exit path no handler can (SIGKILL of the harness).
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pgid: g.pgid, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, nil, fmt.Errorf("start %s: %w", bin, err)
	}
	g.mu.Lock()
	if g.pgid == 0 {
		g.pgid = cmd.Process.Pid
	}
	g.cmds = append(g.cmds, cmd)
	g.logs = append(g.logs, logf)
	g.mu.Unlock()
	return cmd, bufio.NewScanner(stdout), nil
}

func (g *procGroup) kill() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dead {
		return
	}
	g.dead = true
	if g.pgid != 0 {
		syscall.Kill(-g.pgid, syscall.SIGKILL)
	}
	for _, c := range g.cmds {
		c.Wait() // reaps; the error is the kill we just sent
	}
	for _, f := range g.logs {
		f.Close()
	}
	liveMu.Lock()
	delete(liveGroups, g)
	liveMu.Unlock()
}

// firstLine waits for a child's published address (its first stdout line)
// and keeps draining the pipe afterwards so the child never blocks on it.
func firstLine(sc *bufio.Scanner, what string) (string, error) {
	ch := make(chan string, 1)
	go func() {
		if sc.Scan() {
			ch <- sc.Text()
		}
		close(ch)
		for sc.Scan() {
		}
	}()
	select {
	case line, ok := <-ch:
		if !ok || line == "" {
			return "", fmt.Errorf("%s exited before printing its address", what)
		}
		return line, nil
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("%s printed no address within 10s", what)
	}
}

// startProcFleet execs the fleet with default flags. The returned fleet's
// t0 is the instant before the first exec — where setup_s starts.
func startProcFleet(binDir, logPath string, spec fleetSpec) (*fleet, error) {
	ports := make([]int, spec.somads)
	for i := range ports {
		p, err := reservePort(fleetPortBase + i)
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	gatePort := 0
	if spec.gateway {
		p, err := reservePort(fleetPortBase + 16)
		if err != nil {
			return nil, err
		}
		gatePort = p
	}
	g := &procGroup{}
	liveMu.Lock()
	liveGroups[g] = true
	liveMu.Unlock()
	f := &fleet{stop: g.kill, t0: time.Now()}
	fail := func(err error) (*fleet, error) {
		g.kill()
		return nil, err
	}
	addrOf := func(i int) string { return "tcp://127.0.0.1:" + strconv.Itoa(ports[i]) }
	for i := 0; i < spec.somads; i++ {
		args := []string{"-listen", addrOf(i)}
		if spec.somads > 1 {
			var peers []string
			for j := 0; j < spec.somads; j++ {
				if j != i {
					peers = append(peers, addrOf(j))
				}
			}
			args = append(args, "-peers", strings.Join(peers, ","))
		}
		cmd, out, err := g.start(logPath, filepath.Join(binDir, "somad"), args...)
		if err != nil {
			return fail(err)
		}
		addr, err := firstLine(out, "somad")
		if err != nil {
			return fail(err)
		}
		f.addrs = append(f.addrs, addr)
		f.pids = append(f.pids, cmd.Process.Pid)
	}
	if spec.gateway {
		cmd, out, err := g.start(logPath, filepath.Join(binDir, "somagate"),
			"-upstream", f.addrs[0], "-listen", "127.0.0.1:"+strconv.Itoa(gatePort))
		if err != nil {
			return fail(err)
		}
		url, err := firstLine(out, "somagate")
		if err != nil {
			return fail(err)
		}
		f.gateURL = url
		f.pids = append(f.pids, cmd.Process.Pid)
	}
	if err := awaitCluster(f.addrs); err != nil {
		return fail(err)
	}
	return f, nil
}

// awaitCluster blocks until every member reports the whole fleet alive
// under one ring epoch. A solo somad has nothing to converge.
func awaitCluster(addrs []string) error {
	if len(addrs) < 2 {
		return nil
	}
	clients := make([]*core.Client, len(addrs))
	for i, a := range addrs {
		c, err := core.Connect(a, nil)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i] = c
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		epochs := map[uint64]bool{}
		ready := true
		for _, c := range clients {
			h, err := c.Health()
			if err != nil || h.ClusterAlive != len(addrs) {
				ready = false
				break
			}
			epochs[h.ClusterEpoch] = true
		}
		if ready && len(epochs) == 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster of %d never converged on one epoch", len(addrs))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// /proc accounting of the service processes.

// cpuNanos sums on-CPU time over every thread of the given processes, from
// /proc/<pid>/task/*/schedstat (nanosecond resolution). Where schedstat is
// unavailable it falls back to utime+stime of /proc/<pid>/stat in clock
// ticks.
func cpuNanos(pids []int) (int64, error) {
	var total int64
	for _, pid := range pids {
		n, err := pidSchedNanos(pid)
		if err != nil || n == 0 {
			n, err = pidStatNanos(pid)
			if err != nil {
				return 0, err
			}
		}
		total += n
	}
	return total, nil
}

func pidSchedNanos(pid int) (int64, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid), "task")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if err != nil {
			continue // thread exited between readdir and read
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// clockTick is USER_HZ; it is 100 on every Linux this runs on.
const clockTick = 100

func pidStatNanos(pid int) (int64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised comm, which may itself hold spaces.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return (ut + st) * (int64(time.Second) / clockTick), nil
}

// rssBytes sums resident set size over the given processes.
func rssBytes(pids []int) (int64, error) {
	var total int64
	page := int64(os.Getpagesize())
	for _, pid := range pids {
		b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "statm"))
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			return 0, fmt.Errorf("short /proc/%d/statm", pid)
		}
		pages, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, err
		}
		total += pages * page
	}
	return total, nil
}
