package ha

import "procmig/internal/core"

// NewestCheckpoint returns the buddy's newest committed image of
// source/pid and the protection generation its assembler belongs to (nil
// and 0 if it holds none).
func (g *Guard) NewestCheckpoint(source string, pid int) (*core.CommittedImage, uint32) {
	if st, ok := g.ckpts[ckptKey{source, pid}]; ok {
		return st.img, st.gen
	}
	return nil, 0
}
