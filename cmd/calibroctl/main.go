// Command calibroctl is the calibrod client: submit build, debloat, and
// reoutline jobs, wait for them, and fetch their artifacts over the
// daemon's HTTP API.
//
// Usage:
//
//	calibroctl [-addr host:port] <command> [flags]
//
// Commands:
//
//	submit   submit a job, print its ID
//	wait     long-poll a job until it is terminal
//	status   print a job's status JSON
//	stats    print a finished job's build stats JSON
//	fetch    download a finished job's OAT image
//	lint     print a finished job's lint findings
//	trace    print a job's lifecycle and build spans (Chrome trace JSON)
//	cancel   cancel a job
//	health   print the daemon's /healthz
//	metrics  print the daemon's /metrics (-prom for Prometheus text)
//
// submit prints the bare job ID on stdout so shells can do
// `id=$(calibroctl submit -app Taobao)`; everything else prints JSON.
// Exit status is 0 on success, 1 when a waited job ends non-done, 2 on
// usage or transport errors.
//
// Fleet mode: -fleet takes a comma-separated daemon list and routes each
// submit by consistent hash of its app/config/version, so repeat builds
// of the same app land on the same daemon's warm cache. A fleet submit
// prints ID@ADDR, and every job command accepts that form back — the
// address rides inside the ID, so `calibroctl -fleet ... wait $(...)`
// needs no extra bookkeeping. With a shared -remote-cache behind the
// daemons, a job landing on the "wrong" daemon still hits fleet-wide.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(errOut io.Writer) {
	fmt.Fprintln(errOut, `usage: calibroctl [-addr host:port | -fleet a:p,b:p,...] <command> [flags]

commands:
  submit   -app NAME | -dex FILE  [-config C] [-scale F] [-trees N]
           [-rounds N] [-dedup] [-j N] [-runs N] [-verify] [-lint] [-timeout d]
           [-version N] [-delta F]
           -kind debloat|reoutline -oat FILE  [-roots 0,1,2] rewrites an
           existing image instead of building one
  wait     JOB [-poll d]
  status   JOB
  stats    JOB
  fetch    JOB -o FILE
  lint     JOB
  trace    JOB
  cancel   JOB
  health
  metrics  [-prom]`)
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("calibroctl", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.Usage = func() { usage(errOut) }
	addr := fs.String("addr", "127.0.0.1:7723", "calibrod address")
	fleetList := fs.String("fleet", "", "comma-separated calibrod addresses; submits route by consistent hash, job IDs become ID@ADDR")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		usage(errOut)
		return 2
	}
	c := &client{base: "http://" + *addr, out: out, errOut: errOut}
	if *fleetList != "" {
		c.ring = fleet.New(fleet.ParseList(*fleetList), 0)
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = c.submit(rest)
	case "wait":
		var st *jobStatus
		if st, err = c.wait(rest); err == nil && st.State != "done" {
			fmt.Fprintf(errOut, "calibroctl: job %s: %s: %s\n", st.ID, st.State, st.Error)
			return 1
		}
	case "status":
		err = c.getJSON1(rest, "status", "")
	case "stats":
		err = c.getJSON1(rest, "stats", "/stats")
	case "lint":
		err = c.getJSON1(rest, "lint", "/lint")
	case "trace":
		err = c.getJSON1(rest, "trace", "/trace")
	case "fetch":
		err = c.fetch(rest)
	case "cancel":
		err = c.cancel(rest)
	case "health":
		err = c.getJSON("/healthz")
	case "metrics":
		err = c.metrics(rest)
	default:
		fmt.Fprintf(errOut, "calibroctl: unknown command %q\n", cmd)
		usage(errOut)
		return 2
	}
	if err != nil {
		fmt.Fprintln(errOut, "calibroctl:", err)
		return 2
	}
	return 0
}

// jobStatus mirrors serve.JobStatus loosely; the client only steers on
// the state machine.
type jobStatus struct {
	ID    string          `json:"id"`
	State string          `json:"state"`
	Error string          `json:"error"`
	Stats json.RawMessage `json:"stats"`
}

type client struct {
	base   string
	ring   *fleet.Ring // nil outside fleet mode
	out    io.Writer
	errOut io.Writer
}

// jobBase resolves a job operand: an ID@ADDR form (what fleet submits
// print) carries its daemon inside, a bare ID goes to -addr.
func (c *client) jobBase(id string) (base, bare string) {
	if i := strings.LastIndexByte(id, '@'); i >= 0 {
		return "http://" + id[i+1:], id[:i]
	}
	return c.base, id
}

// apiErr turns a non-2xx response into an error carrying the server's
// message.
func apiErr(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
}

func (c *client) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	var (
		app     = fs.String("app", "", "benchmark app profile (Toutiao, Taobao, Fanqie, Meituan, Kuaishou, Wechat)")
		dexFile = fs.String("dex", "", "submit this dex container or assembly-text file instead of a profile")
		kind    = fs.String("kind", "", "job kind: build (default), debloat, reoutline")
		oatFile = fs.String("oat", "", "serialized OAT image a debloat or reoutline job rewrites")
		roots   = fs.String("roots", "", "comma-separated reachability root method IDs (debloat)")
		config  = fs.String("config", "plopti", "ladder config: baseline|cto|ltbo|plopti|hfopti")
		scale   = fs.Float64("scale", 0, "app scale; 0 = server default")
		trees   = fs.Int("trees", 0, "parallel suffix trees; 0 = server default")
		rounds  = fs.Int("rounds", 0, "outlining rounds; 0 = default")
		dedup   = fs.Bool("dedup", false, "merge identical outlined functions")
		workers = fs.Int("j", 0, "per-build worker goroutines; 0 = server default")
		runs    = fs.Int("runs", 0, "hfopti profiling runs; 0 = server default")
		verify  = fs.Bool("verify", false, "fail the build on lint findings")
		lint    = fs.Bool("lint", false, "lint the image and attach findings")
		timeout = fs.Duration("timeout", 0, "job deadline; 0 = server maximum")
		version = fs.Int("version", 0, "app-update version of the profile; 0 = base release")
		delta   = fs.Float64("delta", 0, "fraction of methods changed per version step; 0 = server default 0.10")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := map[string]any{}
	if *kind != "" {
		req["kind"] = *kind
	}
	if *oatFile == "" {
		// Rewrite kinds take an image, not a ladder config.
		req["config"] = *config
	}
	if *app != "" {
		req["app"] = *app
	}
	if *dexFile != "" {
		data, err := os.ReadFile(*dexFile)
		if err != nil {
			return err
		}
		req["dex"] = data
	}
	if *oatFile != "" {
		data, err := os.ReadFile(*oatFile)
		if err != nil {
			return err
		}
		req["oat"] = data
	}
	if *roots != "" {
		var ids []uint32
		for _, s := range strings.Split(*roots, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
			if err != nil {
				return fmt.Errorf("parsing -roots: %w", err)
			}
			ids = append(ids, uint32(n))
		}
		req["roots"] = ids
	}
	// Every numeric flag the user set is forwarded as given, so the
	// daemon's validation answers for a value out of range (a negative
	// -trees is refused, not replaced by the default).
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, f := range []struct {
		flag, field string
		value       any
	}{
		{"scale", "scale", *scale},
		{"trees", "trees", *trees},
		{"rounds", "rounds", *rounds},
		{"j", "workers", *workers},
		{"runs", "runs", *runs},
		{"timeout", "timeout_ms", timeout.Milliseconds()},
		{"version", "version", *version},
		{"delta", "delta", *delta},
	} {
		if set[f.flag] {
			req[f.field] = f.value
		}
	}
	if *dedup {
		req["dedup"] = true
	}
	if *verify {
		req["verify"] = true
	}
	if *lint {
		req["lint"] = true
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	base, suffix := c.base, ""
	if c.ring != nil {
		// Route by what steers the build, so repeat submits of one
		// app/config/version always land on the same daemon's warm cache.
		key := *app + "|" + *config + "|v" + strconv.Itoa(*version)
		if *dexFile != "" {
			key = "dex|" + *dexFile
		}
		if *oatFile != "" {
			key = *kind + "|" + *oatFile
		}
		if a := c.ring.Pick(key); a != "" {
			base, suffix = "http://"+a, "@"+a
		}
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return apiErr(resp)
	}
	var st jobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, st.ID+suffix)
	return nil
}

// jobArg parses the leading JOB operand of a subcommand.
func jobArg(fs *flag.FlagSet, args []string) (string, []string, error) {
	if len(args) == 0 || len(args[0]) == 0 || args[0][0] == '-' {
		return "", nil, fmt.Errorf("%s: job ID required", fs.Name())
	}
	return args[0], args[1:], nil
}

func (c *client) wait(args []string) (*jobStatus, error) {
	fs := flag.NewFlagSet("wait", flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	id, rest, err := jobArg(fs, args)
	if err != nil {
		return nil, err
	}
	poll := fs.Duration("poll", 5*time.Second, "long-poll window per request")
	if err := fs.Parse(rest); err != nil {
		return nil, err
	}
	base, bare := c.jobBase(id)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%s?wait=%s", base, bare, *poll))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, apiErr(resp)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "done", "failed", "canceled":
			enc := json.NewEncoder(c.out)
			enc.SetIndent("", "  ")
			enc.Encode(st) //nolint:errcheck
			return &st, nil
		}
	}
}

// getJSON1 relays GET /jobs/JOB<suffix> to stdout.
func (c *client) getJSON1(args []string, name, suffix string) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	id, rest, err := jobArg(fs, args)
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	base, bare := c.jobBase(id)
	return c.getJSONAt(base, "/jobs/"+bare+suffix)
}

// getJSON relays one GET endpoint's body to stdout.
func (c *client) getJSON(path string) error {
	return c.getJSONAt(c.base, path)
}

// getJSONAt relays one GET endpoint of a specific daemon to stdout.
func (c *client) getJSONAt(base, path string) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	_, err = io.Copy(c.out, resp.Body)
	resp.Body.Close()
	return err
}

// metrics relays /metrics, optionally in the Prometheus text format.
func (c *client) metrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	prom := fs.Bool("prom", false, "fetch the Prometheus text exposition instead of JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *prom {
		return c.getJSON("/metrics?format=prom")
	}
	return c.getJSON("/metrics")
}

func (c *client) fetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	id, rest, err := jobArg(fs, args)
	if err != nil {
		return err
	}
	outPath := fs.String("o", "", "write the image to this file (required)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("fetch: -o FILE is required")
	}
	base, bare := c.jobBase(id)
	resp, err := http.Get(base + "/jobs/" + bare + "/image")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		resp.Body.Close()
		return err
	}
	n, err := io.Copy(f, resp.Body)
	resp.Body.Close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "wrote %s (%d bytes)\n", *outPath, n)
	return nil
}

func (c *client) cancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ContinueOnError)
	fs.SetOutput(c.errOut)
	id, rest, err := jobArg(fs, args)
	if err != nil {
		return err
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	base, bare := c.jobBase(id)
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+bare, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiErr(resp)
	}
	_, err = io.Copy(c.out, resp.Body)
	resp.Body.Close()
	return err
}
