module dataspread/bench

go 1.24

require dataspread v0.0.0

replace dataspread => ../
