// End-to-end test of the shipped binaries: xdmod-setup generates
// configs, xdmod-shredder + xdmod-ingestor load accounting data into a
// satellite warehouse, then xdmod-hub and xdmod-satellite run as real
// processes, federate over TCP, and serve the unified view over HTTP —
// the complete deployment story of README.md, driven exactly as an
// operator would drive it.
package xdmodfed

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xdmodfed/internal/shredder"
	"xdmodfed/internal/workload"
)

// freePort asks the kernel for an unused TCP port.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestEndToEndDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	dir, err := buildMains()
	if err != nil {
		t.Fatal(err)
	}
	tool := func(name string) string { return filepath.Join(dir, "main", name) }
	work := t.TempDir()

	repPort := freePort(t)
	hubAPIPort := freePort(t)
	satAPIPort := freePort(t)
	repAddr := fmt.Sprintf("127.0.0.1:%d", repPort)

	// 1. Operator generates configs with xdmod-setup.
	hubCfg := filepath.Join(work, "hub.json")
	satCfg := filepath.Join(work, "site.json")
	run(t, tool("xdmod-setup"), "-name", "fed-hub", "-out", hubCfg)
	run(t, tool("xdmod-setup"), "-name", "siteA", "-resource", "clusterA:hpc:1.0",
		"-hub", repAddr, "-mode", "tight", "-out", satCfg)

	// 2. A synthesized sacct log is shredded and ingested.
	recs := workload.GenerateJobs(workload.ResourceModel{
		Name: "clusterA", CoresPerNode: 8, MaxNodes: 4, SUFactor: 1,
		MonthlyWeight: [12]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		MeanWallHours: 2, QueueNames: []string{"batch"}, Users: 6,
	}, 10, 42)
	var sacct bytes.Buffer
	if err := shredder.FormatSlurm(&sacct, recs); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(work, "sacct.log")
	if err := os.WriteFile(logPath, sacct.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	staged := filepath.Join(work, "staged.json")
	run(t, tool("xdmod-shredder"), "-format", "slurm", "-resource", "clusterA",
		"-input", logPath, "-json", staged)
	snap := filepath.Join(work, "site.snap")
	out := run(t, tool("xdmod-ingestor"), "-config", satCfg, "-db", snap, "-staging", staged)
	if !strings.Contains(out, fmt.Sprintf("ingested=%d", len(recs))) {
		t.Fatalf("ingestor output:\n%s", out)
	}

	// 3. Start the hub and satellite daemons.
	hubCmd := exec.Command(tool("xdmod-hub"),
		"-config", hubCfg,
		"-listen", fmt.Sprintf("127.0.0.1:%d", hubAPIPort),
		"-replication", repAddr,
		"-members", "siteA",
		"-admin-user", "fedadmin", "-admin-pass", "manager-pass1")
	hubOut := &bytes.Buffer{}
	hubCmd.Stdout, hubCmd.Stderr = hubOut, hubOut
	if err := hubCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		hubCmd.Process.Kill()
		hubCmd.Wait()
	}()

	walPath := filepath.Join(work, "site.wal")
	startSatellite := func(withSnapshot bool) (*exec.Cmd, *bytes.Buffer) {
		args := []string{
			"-config", satCfg, "-wal", walPath,
			"-listen", fmt.Sprintf("127.0.0.1:%d", satAPIPort),
			"-admin-user", "siteadmin", "-admin-pass", "site-pass-123",
		}
		if withSnapshot {
			args = append(args, "-db", snap)
		}
		cmd := exec.Command(tool("xdmod-satellite"), args...)
		log := &bytes.Buffer{}
		cmd.Stdout, cmd.Stderr = log, log
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd, log
	}
	satCmd, satOut := startSatellite(true)
	defer func() {
		satCmd.Process.Kill()
		satCmd.Wait()
	}()

	hubURL := fmt.Sprintf("http://127.0.0.1:%d", hubAPIPort)
	satURL := fmt.Sprintf("http://127.0.0.1:%d", satAPIPort)
	waitHTTP(t, hubURL+"/api/version", hubOut)
	waitHTTP(t, satURL+"/api/version", satOut)

	// 4. The federated view converges on the hub.
	token := httpLogin(t, hubURL, "fedadmin", "manager-pass1")
	deadline := time.Now().Add(30 * time.Second)
	var total float64
	for time.Now().Before(deadline) {
		total = chartTotal(t, hubURL, token, "/api/chart?realm=Jobs&metric=job_count&period=year")
		if total == float64(len(recs)) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if total != float64(len(recs)) {
		t.Fatalf("hub job count = %g, want %d\nhub log:\n%s\nsat log:\n%s",
			total, len(recs), hubOut, satOut)
	}

	// 5. Satellite serves its local view too.
	satToken := httpLogin(t, satURL, "siteadmin", "site-pass-123")
	if got := chartTotal(t, satURL, satToken, "/api/chart?realm=Jobs&metric=job_count&period=year"); got != float64(len(recs)) {
		t.Errorf("satellite job count = %g", got)
	}

	// 6. Federation status reflects the replication session.
	req, _ := http.NewRequest("GET", hubURL+"/api/federation/status", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Members []struct {
			Name   string `json:"name"`
			Events int    `json:"events"`
		} `json:"members"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if len(st.Members) != 1 || st.Members[0].Name != "siteA" || st.Members[0].Events == 0 {
		t.Errorf("federation status = %+v", st)
	}

	// 7. Crash the satellite and restart it from the WAL alone (no
	//    snapshot): its data and local view must survive.
	satCmd.Process.Kill()
	satCmd.Wait()
	// Wait for the port to free.
	time.Sleep(200 * time.Millisecond)
	satCmd2, satOut2 := startSatellite(false)
	defer func() {
		satCmd2.Process.Kill()
		satCmd2.Wait()
	}()
	waitHTTP(t, satURL+"/api/version", satOut2)
	satToken2 := httpLogin(t, satURL, "siteadmin", "site-pass-123")
	if got := chartTotal(t, satURL, satToken2, "/api/chart?realm=Jobs&metric=job_count&period=year"); got != float64(len(recs)) {
		t.Errorf("post-crash satellite job count = %g, want %d\nlog:\n%s", got, len(recs), satOut2)
	}

	// 8. xdmod-report regenerates the paper artifacts (small scale).
	repOut := run(t, tool("xdmod-report"), "-experiment", "table1", "-scale", "30")
	if !strings.Contains(repOut, "[PASS]") || strings.Contains(repOut, "[FAIL]") {
		t.Errorf("xdmod-report output:\n%s", repOut)
	}
}

func waitHTTP(t *testing.T, url string, log *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never came up; log:\n%s", url, log)
}

func httpLogin(t *testing.T, baseURL, user, pass string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"username": user, "password": pass})
	resp, err := http.Post(baseURL+"/api/auth/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	if out["token"] == "" {
		t.Fatalf("login failed: status %d", resp.StatusCode)
	}
	return out["token"]
}

func chartTotal(t *testing.T, baseURL, token, path string) float64 {
	t.Helper()
	req, _ := http.NewRequest("GET", baseURL+path, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Series []struct {
			Aggregate float64 `json:"aggregate"`
		} `json:"series"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	var total float64
	for _, s := range out.Series {
		total += s.Aggregate
	}
	return total
}
