package memcache

import (
	"imca/internal/blob"
	"imca/internal/sim"
)

// syncBank is the blocking face of a SimClient for sequential test
// scripts. Items are copied out of the pooled responses before the
// script sees them.
type syncBank struct{ c *SimClient }

func bank(c *SimClient) syncBank { return syncBank{c} }

func (b syncBank) Get(p *sim.Proc, key string) (it *Item, ok bool) {
	sim.Await(p, func(t *sim.Task, done func()) {
		b.c.Get(t, key, func(got *Item, hit bool) {
			if hit {
				cp := *got
				it = &cp
			}
			ok = hit
			done()
		})
	})
	return it, ok
}

func (b syncBank) Set(p *sim.Proc, key string, value blob.Blob) (err error) {
	sim.Await(p, func(t *sim.Task, done func()) {
		b.c.Set(t, key, value, func(e error) { err = e; done() })
	})
	return err
}

func (b syncBank) Delete(p *sim.Proc, key string) (found bool) {
	sim.Await(p, func(t *sim.Task, done func()) {
		b.c.Delete(t, key, func(f bool) { found = f; done() })
	})
	return found
}

func (b syncBank) GetMulti(p *sim.Proc, keys []string) (items map[string]*Item) {
	sim.Await(p, func(t *sim.Task, done func()) {
		b.c.GetMulti(t, keys, func(got map[string]*Item) {
			items = make(map[string]*Item, len(got))
			for k, it := range got {
				cp := *it
				items[k] = &cp
			}
			done()
		})
	})
	return items
}
