package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mpicd/internal/fabric"
	"mpicd/internal/ucp"
)

// TestConfigMatrixProperty drives the full stack — custom dynamic
// datatype over randomized fragment sizes, protocol thresholds, fabric
// ordering (ooo: a fault plan reorders packets, see ReorderOptions) and
// message shapes — and requires exact roundtrips. This is
// the repo's broadest integrity property: any protocol-selection or
// fragmentation bug surfaces here.
func TestConfigMatrixProperty(t *testing.T) {
	dt := TypeCreateCustom(dvHandler{}, WithInOrder())
	check := func(seed int64, fragRaw uint16, threshRaw uint16, ooo bool) bool {
		rng := rand.New(rand.NewSource(seed))
		frag := int(fragRaw)%8000 + 256
		thresh := int64(threshRaw)%100000 + 512
		opt := Options{
			Fabric: fabric.Config{FragSize: frag},
			UCP:    ucp.Config{RndvThresh: thresh},
		}
		if ooo {
			opt = ReorderOptions(opt, seed)
		}
		// Random double-vector shape.
		n := rng.Intn(8)
		send := make([][]byte, n)
		for i := range send {
			send[i] = make([]byte, rng.Intn(30000))
			rng.Read(send[i])
		}
		ok := true
		err := Run(2, opt, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(send, 1, dt, 1, 1)
			}
			var recv [][]byte
			if _, err := c.Recv(&recv, 1, dt, 0, 1); err != nil {
				return err
			}
			if len(recv) != len(send) {
				ok = false
				return nil
			}
			for i := range send {
				if !bytes.Equal(recv[i], send[i]) {
					ok = false
					return nil
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConfigMatrixBytes does the same sweep for plain byte transfers with
// both expected and unexpected arrival orders.
func TestConfigMatrixBytes(t *testing.T) {
	for _, frag := range []int{300, 4096, 65536} {
		for _, thresh := range []int64{600, 32768, 1 << 30} {
			for _, unexpected := range []bool{false, true} {
				name := fmt.Sprintf("frag%d-thresh%d-unex%v", frag, thresh, unexpected)
				t.Run(name, func(t *testing.T) {
					opt := Options{
						Fabric: fabric.Config{FragSize: frag},
						UCP:    ucp.Config{RndvThresh: thresh},
					}
					data := pattern(100000, 3)
					run2(t, opt,
						func(c *Comm) error {
							if unexpected {
								// Fire before the receiver posts.
								r, err := c.Isend(data, -1, TypeBytes, 1, 1)
								if err != nil {
									return err
								}
								if err := c.Send([]byte{1}, 1, TypeBytes, 1, 2); err != nil {
									return err
								}
								_, err = r.Wait()
								return err
							}
							return c.Send(data, -1, TypeBytes, 1, 1)
						},
						func(c *Comm) error {
							if unexpected {
								one := make([]byte, 1)
								if _, err := c.Recv(one, 1, TypeBytes, 0, 2); err != nil {
									return err
								}
							}
							out := make([]byte, len(data))
							if _, err := c.Recv(out, -1, TypeBytes, 0, 1); err != nil {
								return err
							}
							if !bytes.Equal(out, data) {
								return fmt.Errorf("roundtrip mismatch")
							}
							return nil
						})
				})
			}
		}
	}
}
