package types

// ShardID identifies a shard: a subset of replicas associated with a
// subset of all exclusive logs (paper §V). Non-sharded deployments use a
// single shard with ID 0.
type ShardID int

// SingleShard maps every client to shard 0 (full replication).
func SingleShard(ClientID) ShardID { return 0 }

// HashSharding distributes clients round-robin over k shards; with
// uniformly drawn client identities this balances xlogs across shards.
func HashSharding(k int) func(ClientID) ShardID {
	if k < 1 {
		k = 1
	}
	return func(c ClientID) ShardID { return ShardID(uint64(c) % uint64(k)) }
}

// MixedSharding is HashSharding behind a bit-mixing finalizer
// (splitmix64): identities that are themselves arithmetically partitioned
// — e.g. the clients of one shard under modulo sharding, which share a
// residue class — still spread uniformly over the k buckets. The
// settlement engine stripes accounts with it so stripe and shard
// assignments cannot correlate.
func MixedSharding(k int) func(ClientID) ShardID {
	if k < 1 {
		k = 1
	}
	return func(c ClientID) ShardID { return ShardID(Mix64(uint64(c)) % uint64(k)) }
}
