package vm

// DirectXfers returns how many rendezvous m completed through the static
// schedule's direct transfers.
func DirectXfers(m *Machine) int64 { return m.directXfers }
