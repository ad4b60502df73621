package ucp

import (
	"math"
	"testing"
	"time"

	"mpicd/internal/fabric"
	"mpicd/internal/obs"
)

// TestNICConfigReachesEveryLayer: the fragment size, the checksum switch,
// the incarnation and the observer are set once, on the provider, and every
// layer stacked on it — a fault wrapper, the worker — reads the same values
// through NIC.Config, and reports into the one observer (the worker's
// liveness detection included). An epoch-3 endpoint numbers its messages above every id an
// earlier incarnation of its rank could have used. What the link is comes
// from the provider alone, through the same layers: the worker caps a lane's
// pullers only where a Get is a local copy, and keeps drain state only where
// peers are processes of their own.
func TestNICConfigReachesEveryLayer(t *testing.T) {
	providers := []struct {
		name  string
		gauge string // one the provider registers in the observer
		link  fabric.Link
		open  func(t *testing.T, cfg fabric.Config) (fabric.NIC, error)
	}{
		{"inproc", "fabric.pool_outstanding", fabric.Link{Lossless: true, LocalGet: true}, func(t *testing.T, cfg fabric.Config) (fabric.NIC, error) {
			return fabric.NewInproc(1, cfg).NIC(0), nil
		}},
		{"tcp", "fabric.r0.tcp_redials", fabric.Link{CrossProcess: true}, func(t *testing.T, cfg fabric.Config) (fabric.NIC, error) {
			return fabric.NewTCP(0, []string{"127.0.0.1:0"}, cfg)
		}},
		{"shm", "fabric.r0.shm_ring_sends", fabric.Link{Lossless: true, LocalGet: true, CrossProcess: true}, func(t *testing.T, cfg fabric.Config) (fabric.NIC, error) {
			return fabric.NewSHM(0, 1, t.TempDir(), cfg)
		}},
	}
	for _, p := range providers {
		t.Run(p.name, func(t *testing.T) {
			o := obs.New(0)
			want := fabric.Config{FragSize: 2048, Checksum: true, Epoch: 3, Obs: o}
			nic, err := p.open(t, want)
			if err != nil {
				t.Fatal(err)
			}
			fn := fabric.WrapFault(nic, fabric.FaultPlan{})
			w := NewWorker(fn, Config{Heartbeat: DetectorConfig{Period: time.Hour}})
			defer w.Close()

			for _, layer := range []struct {
				name string
				got  fabric.Config
			}{
				{"provider", nic.Config()},
				{"fault wrapper", fn.Config()},
				{"worker", w.fab},
			} {
				g := layer.got
				if g.FragSize != want.FragSize || g.Checksum != want.Checksum || g.Epoch != want.Epoch || g.Obs != want.Obs {
					t.Errorf("%s sees FragSize %d, Checksum %v, Epoch %d, Obs %p; set: %d, %v, %d, %p",
						layer.name, g.FragSize, g.Checksum, g.Epoch, g.Obs, want.FragSize, want.Checksum, want.Epoch, want.Obs)
				}
			}
			for _, layer := range []struct {
				name string
				got  fabric.Link
			}{
				{"provider", nic.Link()},
				{"fault wrapper", fn.Link()},
			} {
				if layer.got != p.link {
					t.Errorf("%s states link %+v, want %+v", layer.name, layer.got, p.link)
				}
			}
			if uncapped := w.laneCap == math.MaxInt; uncapped == p.link.LocalGet {
				t.Errorf("lane cap %d over a link with LocalGet %v", w.laneCap, p.link.LocalGet)
			}
			if (w.drain != nil) != p.link.CrossProcess {
				t.Errorf("drain state %v over a link with CrossProcess %v", w.drain != nil, p.link.CrossProcess)
			}
			gauges := o.Registry.Snapshot().Gauges
			for _, name := range []string{p.gauge, "fault.r0.faults_total", "hb.r0.peers_dead", "ucp.r0.eager_sends"} {
				if _, ok := gauges[name]; !ok {
					t.Errorf("the observer has no gauge %s", name)
				}
			}

			rr, err := w.Recv(0, 1, exactMask, Contig{}, make([]byte, 1), 1)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := w.Send(0, 1, Contig{}, []byte{7}, 1, 0, ProtoAuto)
			if err != nil {
				t.Fatal(err)
			}
			if err := WaitAll(sr, rr); err != nil {
				t.Fatal(err)
			}
			if sr.msgID < 3<<40 {
				t.Errorf("first message id %#x on an epoch-3 endpoint, want ≥ 3<<40", sr.msgID)
			}
		})
	}
}
