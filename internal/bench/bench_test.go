package bench

import (
	"testing"
	"time"

	"demikernel/internal/baseline"
)

func TestHistStats(t *testing.T) {
	h := &Hist{}
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	if h.Mean() != 50500*time.Nanosecond {
		t.Errorf("mean = %v", h.Mean())
	}
	if h.P50() != 50*time.Microsecond {
		t.Errorf("p50 = %v", h.P50())
	}
	if h.P99() != 99*time.Microsecond {
		t.Errorf("p99 = %v", h.P99())
	}
	if h.Max() != 100*time.Microsecond {
		t.Errorf("max = %v", h.Max())
	}
}

// TestFig5Shape verifies the paper's headline ordering on a reduced run:
// Linux > Catnap > Shenango > {Catnip TCP, Caladan} and raw floors lowest.
func TestFig5Shape(t *testing.T) {
	opts := DefaultEchoOpts()
	opts.Rounds, opts.Warmup = 300, 30
	rtt := func(sys System) time.Duration {
		row, err := RunEcho(sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		return row.Avg
	}
	linux := rtt(SysLinux(baseline.EnvNative))
	catnap := rtt(SysCatnap(baseline.EnvNative))
	shenango := rtt(SysShenango())
	catnipTCP := rtt(SysCatnipTCP())
	catmint := rtt(SysCatmint(0))
	raw := func(run func(int, int) (EchoRow, error)) time.Duration {
		row, err := run(64, 300)
		if err != nil {
			t.Fatalf("%s: %v", row.System, err)
		}
		return row.Avg
	}
	rawDPDK, rawRDMA := raw(RunRawDPDKEcho), raw(RunRawRDMAEcho)
	t.Logf("linux=%v catnap=%v shenango=%v catnipTCP=%v catmint=%v rawDPDK=%v rawRDMA=%v",
		linux, catnap, shenango, catnipTCP, catmint, rawDPDK, rawRDMA)
	if !(linux > catnap && catnap > shenango && shenango > catnipTCP) {
		t.Error("kernel/bypass ordering violated")
	}
	if !(catnipTCP > rawDPDK/2 && catnipTCP < 2*rawDPDK+4*time.Microsecond) {
		t.Error("catnip not within ns-scale overhead of raw DPDK")
	}
	if !(catmint > rawRDMA && catmint < rawRDMA+3*time.Microsecond) {
		t.Error("catmint not within ns-scale overhead of raw RDMA")
	}
	if linux < 20*time.Microsecond || linux > 45*time.Microsecond {
		t.Errorf("linux RTT %v outside the paper's ~30µs ballpark", linux)
	}
}

// TestFig7Shape: with synchronous logging, Demikernel-to-remote-disk beats
// Linux-to-remote-memory.
func TestFig7Shape(t *testing.T) {
	opts := DefaultEchoOpts()
	opts.Rounds, opts.Warmup = 200, 20
	memOpts := opts
	logOpts := opts
	logOpts.Log = true
	linuxMem, err := RunEcho(SysLinux(baseline.EnvNative), memOpts)
	if err != nil {
		t.Fatal(err)
	}
	demiDisk, err := RunEcho(catnipCattreeTCP(), logOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("linux-mem=%v demikernel-disk=%v", linuxMem.Avg, demiDisk.Avg)
	if demiDisk.Avg >= linuxMem.Avg {
		t.Errorf("Demikernel remote-disk (%v) not faster than Linux remote-memory (%v)",
			demiDisk.Avg, linuxMem.Avg)
	}
}

// TestFig10Shape: Catnip relay saves ~10µs per packet over the kernel.
func TestFig10Shape(t *testing.T) {
	linux, err := RunRelay(SysLinux(baseline.EnvNative), 500)
	if err != nil {
		t.Fatal(err)
	}
	catnip, err := RunRelay(SysCatnipUDP(), 500)
	if err != nil {
		t.Fatal(err)
	}
	saved := linux.Mean() - catnip.Mean()
	t.Logf("linux=%v catnip=%v saved=%v", linux.Mean(), catnip.Mean(), saved)
	if saved < 5*time.Microsecond {
		t.Errorf("relay saving %v too small (paper: ~11µs)", saved)
	}
}

// TestFig11Shape: AOF persistence keeps ~90% of in-memory throughput on
// the integrated Demikernel stack, while the kernel path collapses.
func TestFig11Shape(t *testing.T) {
	opts := DefaultRedisOpts()
	opts.Keys, opts.Ops = 1000, 600
	memGet, memSet, err := RunRedis(SysCatnipTCP(), opts)
	if err != nil {
		t.Fatal(err)
	}
	aofOpts := opts
	aofOpts.AOF = true
	aofGet, aofSet, err := RunRedis(catnipCattreeTCP(), aofOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mem get/set = %.0f/%.0f; aof get/set = %.0f/%.0f", memGet, memSet, aofGet, aofSet)
	if aofSet < memSet/3 {
		t.Errorf("AOF SET throughput collapsed: %.0f vs %.0f in-memory", aofSet, memSet)
	}
	// Linux with AOF must be far slower than Demikernel with AOF.
	linGet, linSet, err := RunRedis(SysLinux(baseline.EnvNative), aofOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("linux aof get/set = %.0f/%.0f", linGet, linSet)
	if linSet >= aofSet {
		t.Errorf("Linux AOF SET (%.0f) not slower than Demikernel (%.0f)", linSet, aofSet)
	}
}

// TestFig12Shape: Catmint beats the custom per-connection-QP RDMA stack.
func TestFig12Shape(t *testing.T) {
	opts := DefaultTxnOpts()
	opts.Keys, opts.Txns = 300, 250
	custom, err := RunTxnStore(SysTxnStoreRDMA(), opts)
	if err != nil {
		t.Fatal(err)
	}
	catmint, err := RunTxnStore(SysCatmint(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	linux, err := RunTxnStore(SysLinux(baseline.EnvNative), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("linux=%v custom-rdma=%v catmint=%v", linux.Mean(), custom.Mean(), catmint.Mean())
	if catmint.Mean() >= custom.Mean() {
		t.Error("catmint not faster than the custom RDMA stack")
	}
	if custom.Mean() >= linux.Mean() {
		t.Error("custom RDMA not faster than Linux TCP")
	}
}

// TestFig9SaturationShape: throughput grows with offered load and then
// saturates while latency climbs.
func TestFig9SaturationShape(t *testing.T) {
	load := func(clients int) EchoRow {
		opts := DefaultEchoOpts()
		opts.Rounds, opts.Warmup, opts.Clients, opts.Seed = 200, 20, clients, uint64(100+clients)
		row, err := RunEcho(SysCatnipTCP(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	r1, r16 := load(1), load(16)
	t.Logf("1 client: %.0f ops/s @%v; 16 clients: %.0f ops/s @%v", r1.Throughput, r1.Avg, r16.Throughput, r16.Avg)
	if r16.Throughput < 2*r1.Throughput {
		t.Errorf("throughput did not scale with load: %.0f -> %.0f", r1.Throughput, r16.Throughput)
	}
	if r16.Avg < r1.Avg {
		t.Error("latency should not improve under heavy load")
	}
}

// TestTablesRender ensures the LoC tables count something plausible.
func TestTablesRender(t *testing.T) {
	if loc := ModuleLoC("internal/catnip"); loc < 1000 {
		t.Errorf("catnip LoC = %d, implausibly small", loc)
	}
	t2, t3 := Table2(), Table3()
	if len(t2.Rows) < 4 || len(t3.Rows) < 4 {
		t.Error("tables missing rows")
	}
}

// TestEnvProfilesShape: WSL is much slower than native; the Azure VM adds
// overhead to kernel paths but Catmint stays native (Figure 6).
func TestEnvProfilesShape(t *testing.T) {
	opts := DefaultEchoOpts()
	opts.Rounds, opts.Warmup = 200, 20
	native, err := RunEcho(SysLinux(baseline.EnvNative), opts)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := RunEcho(SysLinux(baseline.EnvAzureVM), opts)
	if err != nil {
		t.Fatal(err)
	}
	wslOpts := opts
	wslOpts.Switch = SwitchIB()
	wsl, err := RunEcho(SysLinux(baseline.EnvWSL), wslOpts)
	if err != nil {
		t.Fatal(err)
	}
	catpaw, err := RunEcho(SysCatpaw(), wslOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("native=%v vm=%v wsl=%v catpaw=%v", native.Avg, vm.Avg, wsl.Avg, catpaw.Avg)
	if !(wsl.Avg > vm.Avg && vm.Avg > native.Avg) {
		t.Error("environment ordering violated")
	}
	if ratio := float64(wsl.Avg) / float64(catpaw.Avg); ratio < 10 {
		t.Errorf("Catpaw only %.1fx faster than WSL (paper: ~27x)", ratio)
	}
}
